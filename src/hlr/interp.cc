#include "hlr/interp.hh"

#include <deque>
#include <memory>
#include <optional>

#include "support/logging.hh"
#include "support/wrap.hh"

namespace uhm::hlr
{

namespace
{

/** A run-time value: scalar or array. */
struct Value
{
    int64_t scalar = 0;
    std::vector<int64_t> array;
    bool isArray = false;
};

/** One name binding inside an activation record. */
struct Binding
{
    std::string_view name;
    Value value;
    /** True for 'const' bindings (immutable, not readable-into). */
    bool isConst = false;
};

/** A procedure visible inside an activation record. */
struct ProcBinding
{
    std::string_view name;
    const ProcDecl *decl;
    /** Activation record that lexically encloses the declaration. */
    size_t defActivation;
};

/**
 * An activation record (contour). Records are kept in a vector and
 * linked by static (lexical) parent index; index 0 is the global
 * contour.
 */
struct Activation
{
    std::vector<Binding> vars;
    std::vector<ProcBinding> procs;
    /** Static link; SIZE_MAX for the outermost record. */
    size_t staticParent = SIZE_MAX;
};

/** Signals a 'return' unwinding, carrying the value for functions. */
struct ReturnSignal
{
    int64_t value;
    bool hasValue;
};

class HlrInterp
{
  public:
    HlrInterp(const AstProgram &ast, const std::vector<int64_t> &input,
              uint64_t max_steps)
        : ast_(ast), input_(input), maxSteps_(max_steps)
    {}

    HlrRunResult
    run()
    {
        // Global contour: the main block's variables and procedures.
        activations_.emplace_back();
        openBlock(ast_.main, 0, 0);
        for (const StmtPtr &stmt : ast_.main.body) {
            if (execStmt(*stmt, 0))
                break;
        }
        result_.stmts = steps_;
        return std::move(result_);
    }

  private:
    /** Populate activation @p act with @p block's declarations. */
    void
    openBlock(const Block &block, size_t act, size_t def_act)
    {
        for (const ConstDecl &decl : block.consts) {
            Binding b;
            b.name = decl.name;
            b.value.scalar = decl.value;
            b.isConst = true;
            activations_[act].vars.push_back(std::move(b));
        }
        for (const VarDecl &var : block.vars) {
            Binding b;
            b.name = var.name;
            if (var.arraySize > 0) {
                b.value.isArray = true;
                b.value.array.assign(var.arraySize, 0);
            }
            activations_[act].vars.push_back(std::move(b));
        }
        for (const ProcDecl &proc : block.procs) {
            activations_[act].procs.push_back(
                {proc.name, &proc, def_act});
        }
    }

    /**
     * Associative lookup: search the name tables along the static chain,
     * counting comparisons.
     */
    Value *
    findVar(std::string_view name, size_t act)
    {
        for (size_t a = act; a != SIZE_MAX;
             a = activations_[a].staticParent) {
            for (Binding &b : activations_[a].vars) {
                ++result_.nameSearchSteps;
                if (b.name == name)
                    return &b.value;
            }
        }
        return nullptr;
    }

    const ProcBinding *
    findProc(std::string_view name, size_t act)
    {
        for (size_t a = act; a != SIZE_MAX;
             a = activations_[a].staticParent) {
            for (const ProcBinding &p : activations_[a].procs) {
                ++result_.nameSearchSteps;
                if (p.name == name)
                    return &p;
            }
        }
        return nullptr;
    }

    Value &
    requireVar(std::string_view name, size_t act, SourceLoc loc)
    {
        Value *v = findVar(name, act);
        if (!v)
            fatal("%s: undeclared name '%s'", loc.toString().c_str(),
                  std::string(name).c_str());
        return *v;
    }

    /** As requireVar, but rejects 'const' bindings (write targets). */
    Value &
    requireMutable(std::string_view name, size_t act, SourceLoc loc)
    {
        for (size_t a = act; a != SIZE_MAX;
             a = activations_[a].staticParent) {
            for (Binding &b : activations_[a].vars) {
                ++result_.nameSearchSteps;
                if (b.name == name) {
                    if (b.isConst)
                        fatal("%s: constant '%s' cannot be assigned "
                              "or read into", loc.toString().c_str(),
                              std::string(name).c_str());
                    return b.value;
                }
            }
        }
        fatal("%s: undeclared name '%s'", loc.toString().c_str(),
              std::string(name).c_str());
    }

    void
    step(SourceLoc loc)
    {
        if (++steps_ > maxSteps_)
            fatal("%s: statement budget exhausted",
                  loc.toString().c_str());
    }

    int64_t
    callProc(std::string_view name, ExprList args, size_t act,
             SourceLoc loc, bool want_value)
    {
        const ProcBinding *pb = findProc(name, act);
        if (!pb)
            fatal("%s: undeclared procedure '%s'",
                  loc.toString().c_str(), std::string(name).c_str());
        const ProcDecl &decl = *pb->decl;
        if (want_value && !decl.isFunc)
            fatal("%s: '%s' does not return a value",
                  loc.toString().c_str(), std::string(name).c_str());
        if (args.size() != decl.params.size())
            fatal("%s: '%s' expects %zu argument(s), got %zu",
                  loc.toString().c_str(), std::string(name).c_str(),
                  decl.params.size(), args.size());

        std::vector<int64_t> arg_values;
        arg_values.reserve(args.size());
        for (const ExprPtr &arg : args)
            arg_values.push_back(evalExpr(*arg, act));

        size_t callee = activations_.size();
        activations_.emplace_back();
        activations_[callee].staticParent = pb->defActivation;
        for (size_t i = 0; i < decl.params.size(); ++i) {
            Binding b;
            b.name = decl.params[i];
            b.value.scalar = arg_values[i];
            activations_[callee].vars.push_back(std::move(b));
        }
        openBlock(*decl.block, callee, callee);

        int64_t ret = 0;
        for (const StmtPtr &stmt : decl.block->body) {
            if (auto sig = execStmtSig(*stmt, callee)) {
                if (sig->hasValue)
                    ret = sig->value;
                break;
            }
        }
        activations_.pop_back();
        return ret;
    }

    /** Execute @p stmt; true means a return/halt unwound through it. */
    bool
    execStmt(const Stmt &stmt, size_t act)
    {
        return execStmtSig(stmt, act).has_value();
    }

    std::optional<ReturnSignal>
    execStmtSig(const Stmt &stmt, size_t act)
    {
        step(stmt.loc);
        switch (stmt.kind) {
          case Stmt::Kind::Assign: {
            int64_t v = evalExpr(*stmt.exprs[0], act);
            Value &var = requireMutable(stmt.name, act, stmt.loc);
            if (stmt.exprs.size() > 1) {
                if (!var.isArray)
                    fatal("%s: '%s' is not an array",
                          stmt.loc.toString().c_str(),
                          std::string(stmt.name).c_str());
                int64_t idx = evalExpr(*stmt.exprs[1], act);
                boundsCheck(var, idx, stmt.loc);
                var.array[idx] = v;
            } else {
                if (var.isArray)
                    fatal("%s: array '%s' needs an index",
                          stmt.loc.toString().c_str(),
                          std::string(stmt.name).c_str());
                var.scalar = v;
            }
            return std::nullopt;
          }
          case Stmt::Kind::If: {
            const auto &branch = evalExpr(*stmt.exprs[0], act) != 0 ?
                stmt.body : stmt.elseBody;
            for (const StmtPtr &s : branch) {
                if (auto sig = execStmtSig(*s, act))
                    return sig;
            }
            return std::nullopt;
          }
          case Stmt::Kind::While: {
            while (evalExpr(*stmt.exprs[0], act) != 0) {
                for (const StmtPtr &s : stmt.body) {
                    if (auto sig = execStmtSig(*s, act))
                        return sig;
                }
                step(stmt.loc);
            }
            return std::nullopt;
          }
          case Stmt::Kind::For: {
            int64_t from = evalExpr(*stmt.exprs[0], act);
            {
                Value &var = requireMutable(stmt.name, act, stmt.loc);
                if (var.isArray)
                    fatal("%s: array '%s' cannot be a loop variable",
                          stmt.loc.toString().c_str(),
                          std::string(stmt.name).c_str());
                var.scalar = from;
            }
            for (;;) {
                // Match the compiled code's order exactly: the loop
                // variable is read *before* the bound is re-evaluated
                // (the bound expression may have side effects on it).
                int64_t cur =
                    requireMutable(stmt.name, act, stmt.loc).scalar;
                int64_t bound = evalExpr(*stmt.exprs[1], act);
                if (cur > bound)
                    break;
                for (const StmtPtr &s : stmt.body) {
                    if (auto sig = execStmtSig(*s, act))
                        return sig;
                }
                Value &again = requireMutable(stmt.name, act, stmt.loc);
                again.scalar = wrapAdd(again.scalar, 1);
                step(stmt.loc);
            }
            return std::nullopt;
          }
          case Stmt::Kind::Repeat: {
            do {
                for (const StmtPtr &s : stmt.body) {
                    if (auto sig = execStmtSig(*s, act))
                        return sig;
                }
                step(stmt.loc);
            } while (evalExpr(*stmt.exprs[0], act) == 0);
            return std::nullopt;
          }
          case Stmt::Kind::Call:
            callProc(stmt.name, stmt.exprs, act, stmt.loc, false);
            return std::nullopt;
          case Stmt::Kind::Write:
            result_.output.push_back(evalExpr(*stmt.exprs[0], act));
            return std::nullopt;
          case Stmt::Kind::Read: {
            int64_t v = 0;
            if (inputPos_ < input_.size())
                v = input_[inputPos_++];
            Value &var = requireMutable(stmt.name, act, stmt.loc);
            if (!stmt.exprs.empty()) {
                int64_t idx = evalExpr(*stmt.exprs[0], act);
                boundsCheck(var, idx, stmt.loc);
                var.array[idx] = v;
            } else {
                var.scalar = v;
            }
            return std::nullopt;
          }
          case Stmt::Kind::Return: {
            ReturnSignal sig{0, false};
            if (!stmt.exprs.empty()) {
                sig.value = evalExpr(*stmt.exprs[0], act);
                sig.hasValue = true;
            }
            return sig;
          }
        }
        panic("unhandled statement kind");
    }

    void
    boundsCheck(const Value &var, int64_t idx, SourceLoc loc)
    {
        if (!var.isArray || idx < 0 ||
            static_cast<size_t>(idx) >= var.array.size()) {
            fatal("%s: array index %lld out of bounds",
                  loc.toString().c_str(), static_cast<long long>(idx));
        }
    }

    int64_t
    evalExpr(const Expr &expr, size_t act)
    {
        switch (expr.kind) {
          case Expr::Kind::Number:
            return expr.value;
          case Expr::Kind::Var: {
            Value &v = requireVar(expr.name, act, expr.loc);
            if (v.isArray)
                fatal("%s: array '%s' needs an index",
                      expr.loc.toString().c_str(),
                      std::string(expr.name).c_str());
            return v.scalar;
          }
          case Expr::Kind::Index: {
            Value &v = requireVar(expr.name, act, expr.loc);
            int64_t idx = evalExpr(*expr.kids[0], act);
            boundsCheck(v, idx, expr.loc);
            return v.array[idx];
          }
          case Expr::Kind::Call:
            return callProc(expr.name, expr.kids, act, expr.loc, true);
          case Expr::Kind::Unary: {
            int64_t v = evalExpr(*expr.kids[0], act);
            return expr.op == AstOp::Neg ? wrapNeg(v) : (v == 0 ? 1 : 0);
          }
          case Expr::Kind::Binary: {
            int64_t a = evalExpr(*expr.kids[0], act);
            int64_t b = evalExpr(*expr.kids[1], act);
            switch (expr.op) {
              case AstOp::Add: return wrapAdd(a, b);
              case AstOp::Sub: return wrapSub(a, b);
              case AstOp::Mul: return wrapMul(a, b);
              case AstOp::Div:
                if (b == 0)
                    fatal("%s: division by zero",
                          expr.loc.toString().c_str());
                return wrapDiv(a, b);
              case AstOp::Mod:
                if (b == 0)
                    fatal("%s: modulo by zero",
                          expr.loc.toString().c_str());
                return wrapMod(a, b);
              case AstOp::Eq:  return a == b;
              case AstOp::Ne:  return a != b;
              case AstOp::Lt:  return a < b;
              case AstOp::Le:  return a <= b;
              case AstOp::Gt:  return a > b;
              case AstOp::Ge:  return a >= b;
              case AstOp::And: return (a != 0 && b != 0) ? 1 : 0;
              case AstOp::Or:  return (a != 0 || b != 0) ? 1 : 0;
              default: panic("bad binary operator");
            }
          }
        }
        panic("unhandled expression kind");
    }

    const AstProgram &ast_;
    const std::vector<int64_t> &input_;
    size_t inputPos_ = 0;
    uint64_t maxSteps_;
    uint64_t steps_ = 0;
    std::deque<Activation> activations_;
    HlrRunResult result_;
};

} // anonymous namespace

HlrRunResult
interpretHlr(const AstProgram &ast, const std::vector<int64_t> &input,
             uint64_t max_steps)
{
    HlrInterp interp(ast, input, max_steps);
    return interp.run();
}

} // namespace uhm::hlr
