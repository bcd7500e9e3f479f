#include "hlr/compiler.hh"

#include <sstream>
#include <string_view>
#include <utility>
#include <vector>

#include "hlr/lexer.hh"
#include "hlr/parser.hh"
#include "support/logging.hh"

namespace uhm::hlr
{

namespace
{

/** A resolved name. */
struct Symbol
{
    enum class Kind : uint8_t { Scalar, Array, Proc, Const };
    Kind kind = Kind::Scalar;
    /** Contour depth of the defining block (variables). */
    unsigned depth = 0;
    /** First slot (variables). */
    uint32_t slot = 0;
    /** Element count (arrays). */
    uint32_t arraySize = 0;
    /** Procedure index (CALLP operand). */
    uint32_t procIdx = 0;
    /** Parameter count (procedures). */
    uint32_t nparams = 0;
    /** True for 'func' procedures. */
    bool isFunc = false;
    /** Compile-time value (constants). */
    int64_t constValue = 0;
};

class Compiler
{
  public:
    DirProgram
    run(const AstProgram &ast)
    {
        prog_.name = ast.name;

        // Enough for the sample programs without growing.
        prog_.instrs.reserve(256);
        prog_.contourOf.reserve(256);
        prog_.contours.reserve(16);
        symbols_.reserve(64);

        // Globals: the main block's variables live at depth 0.
        openScope();
        uint32_t next_slot = 0;
        for (const ConstDecl &decl : ast.main.consts)
            declareConst(decl);
        for (const VarDecl &var : ast.main.vars)
            declareVar(var, 0, next_slot);
        prog_.numGlobals = next_slot;

        // Main contour (id 0): depth 1, no locals of its own.
        Contour main_ctr;
        main_ctr.name = "<main>";
        main_ctr.depth = 1;
        main_ctr.slotsAtDepth = {prog_.numGlobals, 0};
        prog_.contours.push_back(main_ctr);

        chain_ = {prog_.numGlobals, 0};

        // Register and compile the main block's procedures, then main
        // itself.
        openScope();
        registerProcs(ast.main, 1);
        compileProcs(ast.main, 1);

        currentContour_ = 0;
        inFunc_ = false;
        inMain_ = true;
        prog_.entry = emit({Op::ENTER, 1, 0, 0});
        prog_.contours[0].entry = prog_.entry;
        for (const StmtPtr &stmt : ast.main.body)
            compileStmt(*stmt);
        emit({Op::HALT});
        closeScope();
        closeScope();

        if (!errors_.empty()) {
            std::ostringstream os;
            for (size_t i = 0; i < errors_.size(); ++i)
                os << (i ? "\n" : "") << errors_[i];
            throw FatalError(os.str());
        }

        prog_.validate();
        return std::move(prog_);
    }

  private:
    // ---- error handling -------------------------------------------------

    void
    error(SourceLoc loc, const std::string &msg)
    {
        errors_.push_back(loc.toString() + ": " + msg);
    }

    /** @p name in quotes, for messages. */
    static std::string
    quoted(std::string_view name)
    {
        std::string q = "'";
        q.append(name).push_back('\'');
        return q;
    }

    // ---- scopes ---------------------------------------------------------

    /** Open a scope nested in every open one. */
    void openScope() { scopeStarts_.push_back(symbols_.size()); }

    /** Close the innermost scope, forgetting its symbols. */
    void
    closeScope()
    {
        symbols_.resize(scopeStarts_.back());
        scopeStarts_.pop_back();
    }

    /** Declare @p name in the innermost scope; a redeclaration there is
     *  an error and keeps the first declaration. */
    void
    declare(std::string_view name, const Symbol &sym, SourceLoc loc)
    {
        for (size_t i = scopeStarts_.back(); i < symbols_.size(); ++i) {
            if (symbols_[i].first == name) {
                error(loc, "redeclaration of " + quoted(name));
                return;
            }
        }
        symbols_.emplace_back(name, sym);
    }

    // ---- declarations ---------------------------------------------------

    void
    declareConst(const ConstDecl &decl)
    {
        Symbol sym;
        sym.kind = Symbol::Kind::Const;
        sym.constValue = decl.value;
        declare(decl.name, sym, decl.loc);
    }

    void
    declareVar(const VarDecl &var, unsigned depth, uint32_t &next_slot)
    {
        Symbol sym;
        sym.kind = var.arraySize > 0 ? Symbol::Kind::Array :
            Symbol::Kind::Scalar;
        sym.depth = depth;
        sym.slot = next_slot;
        sym.arraySize = var.arraySize;
        next_slot += var.arraySize > 0 ? var.arraySize : 1;
        declare(var.name, sym, var.loc);
    }

    /**
     * Register every procedure declared in @p block (at contour depth
     * @p depth) into the innermost scope, assigning procedure indices
     * and building
     * contour-table entries. Registration precedes body compilation so
     * sibling procedures may call each other.
     */
    void
    registerProcs(const Block &block, unsigned depth)
    {
        for (const ProcDecl &proc : block.procs) {
            Symbol sym;
            sym.kind = Symbol::Kind::Proc;
            sym.procIdx = static_cast<uint32_t>(prog_.contours.size() - 1);
            sym.nparams = static_cast<uint32_t>(proc.params.size());
            sym.isFunc = proc.isFunc;
            declare(proc.name, sym, proc.loc);

            Contour ctr;
            ctr.name = proc.name;
            ctr.depth = depth + 1;
            ctr.nparams = sym.nparams;
            ctr.isFunc = proc.isFunc;
            // nlocals: params, then declared variables.
            uint32_t nlocals = sym.nparams;
            for (const VarDecl &var : proc.block->vars)
                nlocals += var.arraySize > 0 ? var.arraySize : 1;
            ctr.nlocals = nlocals;
            // slotsAtDepth is completed when the body is compiled (the
            // chain up to 'depth' is only known then); reserve now.
            prog_.contours.push_back(ctr);
        }
    }

    /** Compile the bodies of every procedure declared in @p block. */
    void
    compileProcs(const Block &block, unsigned depth)
    {
        for (const ProcDecl &proc : block.procs)
            compileProcBody(proc, *lookup(proc.name), depth + 1);
    }

    void
    compileProcBody(const ProcDecl &proc, Symbol sym, unsigned depth)
    {
        uint32_t ctr_id = sym.procIdx + 1;
        // NOTE: prog_.contours grows while inner procedures register,
        // so the contour is re-indexed rather than held by reference.
        uint32_t nlocals = prog_.contours[ctr_id].nlocals;

        // Local scope: constants, then parameters, then variables.
        openScope();
        uint32_t next_slot = 0;
        for (const ConstDecl &decl : proc.block->consts)
            declareConst(decl);
        for (std::string_view param : proc.params) {
            VarDecl pv;
            pv.name = param;
            pv.loc = proc.loc;
            declareVar(pv, depth, next_slot);
        }
        for (const VarDecl &var : proc.block->vars)
            declareVar(var, depth, next_slot);
        uhm_assert(next_slot == nlocals, "nlocals mismatch in '%s'",
                   std::string(proc.name).c_str());

        chain_.push_back(nlocals);
        prog_.contours[ctr_id].slotsAtDepth = chain_;

        // Inner procedures first.
        openScope();
        registerProcs(*proc.block, depth);
        compileProcs(*proc.block, depth);

        uint32_t saved_contour = currentContour_;
        bool saved_in_func = inFunc_;
        bool saved_in_main = inMain_;
        currentContour_ = ctr_id;
        inFunc_ = proc.isFunc;
        inMain_ = false;

        prog_.contours[ctr_id].entry =
            emit({Op::ENTER, static_cast<int64_t>(depth), nlocals,
                  prog_.contours[ctr_id].nparams});
        for (const StmtPtr &stmt : proc.block->body)
            compileStmt(*stmt);
        // Fall-off-the-end return; functions yield 0.
        if (proc.isFunc)
            emit({Op::PUSHC, 0});
        emit({Op::RET, static_cast<int64_t>(depth), nlocals});

        currentContour_ = saved_contour;
        inFunc_ = saved_in_func;
        inMain_ = saved_in_main;
        closeScope();
        closeScope();
        chain_.pop_back();
    }

    // ---- name lookup ----------------------------------------------------

    const Symbol *
    lookup(std::string_view name)
    {
        // Innermost first: an inner declaration shadows an outer one.
        for (auto it = symbols_.rbegin(); it != symbols_.rend(); ++it) {
            if (it->first == name)
                return &it->second;
        }
        return nullptr;
    }

    const Symbol *
    lookupVar(std::string_view name, SourceLoc loc, bool want_array)
    {
        const Symbol *sym = lookup(name);
        if (!sym) {
            error(loc, "undeclared name " + quoted(name));
            return nullptr;
        }
        if (sym->kind == Symbol::Kind::Proc) {
            error(loc, quoted(name) + " is a procedure, not a variable");
            return nullptr;
        }
        if (sym->kind == Symbol::Kind::Const) {
            error(loc, "constant " + quoted(name) + " cannot be assigned "
                  "or read into");
            return nullptr;
        }
        if (want_array && sym->kind != Symbol::Kind::Array) {
            error(loc, quoted(name) + " is not an array");
            return nullptr;
        }
        if (!want_array && sym->kind == Symbol::Kind::Array) {
            error(loc, "array " + quoted(name) + " needs an index here");
            return nullptr;
        }
        return sym;
    }

    // ---- emission -------------------------------------------------------

    size_t
    emit(DirInstruction ins)
    {
        prog_.instrs.push_back(ins);
        prog_.contourOf.push_back(currentContour_);
        return prog_.instrs.size() - 1;
    }

    void
    patchTarget(size_t at, size_t target)
    {
        prog_.instrs[at].operands[0] = static_cast<int64_t>(target);
    }

    // ---- statements -----------------------------------------------------

    void
    compileStmt(const Stmt &stmt)
    {
        switch (stmt.kind) {
          case Stmt::Kind::Assign: {
            bool indexed = stmt.exprs.size() > 1;
            const Symbol *sym = lookupVar(stmt.name, stmt.loc, indexed);
            if (!sym)
                return;
            if (indexed) {
                compileExpr(*stmt.exprs[0]);
                emit({Op::ADDR, sym->depth, sym->slot});
                compileExpr(*stmt.exprs[1]);
                emit({Op::ADD});
                emit({Op::STOREI});
            } else {
                compileExpr(*stmt.exprs[0]);
                emit({Op::STOREL, sym->depth, sym->slot});
            }
            return;
          }
          case Stmt::Kind::If: {
            compileExpr(*stmt.exprs[0]);
            size_t jz = emit({Op::JZ, 0});
            for (const StmtPtr &s : stmt.body)
                compileStmt(*s);
            if (stmt.elseBody.empty()) {
                patchTarget(jz, prog_.instrs.size());
            } else {
                size_t jmp = emit({Op::JMP, 0});
                patchTarget(jz, prog_.instrs.size());
                for (const StmtPtr &s : stmt.elseBody)
                    compileStmt(*s);
                patchTarget(jmp, prog_.instrs.size());
            }
            return;
          }
          case Stmt::Kind::While: {
            size_t top = prog_.instrs.size();
            compileExpr(*stmt.exprs[0]);
            size_t jz = emit({Op::JZ, 0});
            for (const StmtPtr &s : stmt.body)
                compileStmt(*s);
            emit({Op::JMP, static_cast<int64_t>(top)});
            patchTarget(jz, prog_.instrs.size());
            return;
          }
          case Stmt::Kind::For: {
            // for v := a to b: the bound is re-evaluated every
            // iteration (documented language semantics).
            const Symbol *sym = lookupVar(stmt.name, stmt.loc, false);
            if (!sym)
                return;
            compileExpr(*stmt.exprs[0]);
            emit({Op::STOREL, sym->depth, sym->slot});
            size_t top = prog_.instrs.size();
            emit({Op::PUSHL, sym->depth, sym->slot});
            compileExpr(*stmt.exprs[1]);
            emit({Op::LE});
            size_t jz = emit({Op::JZ, 0});
            for (const StmtPtr &s : stmt.body)
                compileStmt(*s);
            emit({Op::PUSHL, sym->depth, sym->slot});
            emit({Op::PUSHC, 1});
            emit({Op::ADD});
            emit({Op::STOREL, sym->depth, sym->slot});
            emit({Op::JMP, static_cast<int64_t>(top)});
            patchTarget(jz, prog_.instrs.size());
            return;
          }
          case Stmt::Kind::Repeat: {
            size_t top = prog_.instrs.size();
            for (const StmtPtr &s : stmt.body)
                compileStmt(*s);
            compileExpr(*stmt.exprs[0]);
            emit({Op::JZ, static_cast<int64_t>(top)});
            return;
          }
          case Stmt::Kind::Call: {
            const Symbol *sym = lookup(stmt.name);
            if (!sym || sym->kind != Symbol::Kind::Proc) {
                error(stmt.loc, quoted(stmt.name) + " is not a procedure");
                return;
            }
            compileCall(*sym, stmt.exprs, stmt.loc, stmt.name);
            if (sym->isFunc)
                emit({Op::DROP});
            return;
          }
          case Stmt::Kind::Write:
            compileExpr(*stmt.exprs[0]);
            emit({Op::WRITE});
            return;
          case Stmt::Kind::Read: {
            bool indexed = !stmt.exprs.empty();
            const Symbol *sym = lookupVar(stmt.name, stmt.loc, indexed);
            if (!sym)
                return;
            emit({Op::READ});
            if (indexed) {
                emit({Op::ADDR, sym->depth, sym->slot});
                compileExpr(*stmt.exprs[0]);
                emit({Op::ADD});
                emit({Op::STOREI});
            } else {
                emit({Op::STOREL, sym->depth, sym->slot});
            }
            return;
          }
          case Stmt::Kind::Return: {
            if (inMain_) {
                if (!stmt.exprs.empty())
                    error(stmt.loc, "the main program cannot return a "
                          "value");
                emit({Op::HALT});
                return;
            }
            const Contour &ctr = prog_.contours[currentContour_];
            if (inFunc_) {
                if (stmt.exprs.empty()) {
                    error(stmt.loc, "function must return a value");
                    emit({Op::PUSHC, 0});
                } else {
                    compileExpr(*stmt.exprs[0]);
                }
            } else if (!stmt.exprs.empty()) {
                error(stmt.loc, "procedure cannot return a value");
            }
            emit({Op::RET, static_cast<int64_t>(ctr.depth), ctr.nlocals});
            return;
          }
        }
        panic("unhandled statement kind");
    }

    void
    compileCall(const Symbol &sym, ExprList args, SourceLoc loc,
                std::string_view name)
    {
        if (args.size() != sym.nparams) {
            error(loc, quoted(name) + " expects " +
                  std::to_string(sym.nparams) + " argument(s), got " +
                  std::to_string(args.size()));
        }
        for (const ExprPtr &arg : args)
            compileExpr(*arg);
        emit({Op::CALLP, sym.procIdx});
    }

    // ---- expressions ----------------------------------------------------

    /** True if @p expr statically yields 0 or 1. */
    static bool
    isBooleanShaped(const Expr &expr)
    {
        if (expr.kind == Expr::Kind::Unary)
            return expr.op == AstOp::Not;
        if (expr.kind != Expr::Kind::Binary)
            return false;
        switch (expr.op) {
          case AstOp::Eq: case AstOp::Ne: case AstOp::Lt:
          case AstOp::Le: case AstOp::Gt: case AstOp::Ge:
          case AstOp::And: case AstOp::Or:
            return true;
          default:
            return false;
        }
    }

    /** Compile @p expr and normalize the result to 0/1. */
    void
    compileBool(const Expr &expr)
    {
        compileExpr(expr);
        if (!isBooleanShaped(expr)) {
            emit({Op::PUSHC, 0});
            emit({Op::NE});
        }
    }

    void
    compileExpr(const Expr &expr)
    {
        switch (expr.kind) {
          case Expr::Kind::Number:
            emit({Op::PUSHC, expr.value});
            return;
          case Expr::Kind::Var: {
            const Symbol *sym = lookup(expr.name);
            if (sym && sym->kind == Symbol::Kind::Const) {
                emit({Op::PUSHC, sym->constValue});
                return;
            }
            sym = lookupVar(expr.name, expr.loc, false);
            if (!sym)
                return;
            emit({Op::PUSHL, sym->depth, sym->slot});
            return;
          }
          case Expr::Kind::Index: {
            const Symbol *sym = lookupVar(expr.name, expr.loc, true);
            if (!sym)
                return;
            emit({Op::ADDR, sym->depth, sym->slot});
            compileExpr(*expr.kids[0]);
            emit({Op::ADD});
            emit({Op::LOADI});
            return;
          }
          case Expr::Kind::Call: {
            const Symbol *sym = lookup(expr.name);
            if (!sym || sym->kind != Symbol::Kind::Proc) {
                error(expr.loc, quoted(expr.name) + " is not a procedure");
                return;
            }
            if (!sym->isFunc) {
                error(expr.loc,
                      quoted(expr.name) + " does not return a value");
                return;
            }
            compileCall(*sym, expr.kids, expr.loc, expr.name);
            return;
          }
          case Expr::Kind::Unary:
            if (expr.op == AstOp::Neg) {
                compileExpr(*expr.kids[0]);
                emit({Op::NEG});
            } else {
                // not x  ==  (x = 0)
                compileExpr(*expr.kids[0]);
                emit({Op::PUSHC, 0});
                emit({Op::EQ});
            }
            return;
          case Expr::Kind::Binary: {
            if (expr.op == AstOp::And || expr.op == AstOp::Or) {
                compileBool(*expr.kids[0]);
                compileBool(*expr.kids[1]);
                emit({expr.op == AstOp::And ? Op::AND : Op::OR});
                return;
            }
            compileExpr(*expr.kids[0]);
            compileExpr(*expr.kids[1]);
            Op op;
            switch (expr.op) {
              case AstOp::Add: op = Op::ADD; break;
              case AstOp::Sub: op = Op::SUB; break;
              case AstOp::Mul: op = Op::MUL; break;
              case AstOp::Div: op = Op::DIV; break;
              case AstOp::Mod: op = Op::MOD; break;
              case AstOp::Eq:  op = Op::EQ; break;
              case AstOp::Ne:  op = Op::NE; break;
              case AstOp::Lt:  op = Op::LT; break;
              case AstOp::Le:  op = Op::LE; break;
              case AstOp::Gt:  op = Op::GT; break;
              case AstOp::Ge:  op = Op::GE; break;
              default: panic("bad binary operator");
            }
            emit({op});
            return;
          }
        }
        panic("unhandled expression kind");
    }

    DirProgram prog_;
    /** Every visible symbol, innermost scope last. */
    std::vector<std::pair<std::string_view, Symbol>> symbols_;
    /** Where each open scope's symbols start in symbols_. */
    std::vector<size_t> scopeStarts_;
    /** slotsAtDepth chain of the contour being compiled. */
    std::vector<uint32_t> chain_;
    std::vector<std::string> errors_;
    uint32_t currentContour_ = 0;
    bool inFunc_ = false;
    bool inMain_ = true;
};

} // anonymous namespace

DirProgram
compile(const AstProgram &ast)
{
    Compiler compiler;
    return compiler.run(ast);
}

DirProgram
compileSource(const std::string &source)
{
    return compile(parse(source));
}

} // namespace uhm::hlr
