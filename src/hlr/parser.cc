#include "hlr/parser.hh"

#include <sstream>

#include "hlr/lexer.hh"
#include "support/logging.hh"

namespace uhm::hlr
{

void *
AstArena::allocate(size_t bytes, size_t align)
{
    size_t pad = (align - reinterpret_cast<uintptr_t>(next_) % align) %
        align;
    if (pad + bytes > left_) {
        while (chunkBytes_ < bytes + align)
            chunkBytes_ *= 2;
        chunks_.push_back(
            std::make_unique_for_overwrite<std::byte[]>(chunkBytes_));
        next_ = chunks_.back().get();
        left_ = chunkBytes_;
        chunkBytes_ *= 2;
        pad = (align - reinterpret_cast<uintptr_t>(next_) % align) % align;
    }
    void *p = next_ + pad;
    next_ += pad + bytes;
    left_ -= pad + bytes;
    return p;
}

Parser::Parser(std::vector<Token> tokens) : tokens_(std::move(tokens))
{
    uhm_assert(!tokens_.empty() &&
               tokens_.back().kind == Tok::EndOfFile,
               "token stream must end with EndOfFile");
    // Room for the deepest lists a program of this size is likely to
    // hold open at once, so the stacks rarely grow.
    const size_t room = tokens_.size() / 8 + 8;
    exprs_.reserve(room);
    stmts_.reserve(room);
    consts_.reserve(8);
    vars_.reserve(room / 2);
    procs_.reserve(8);
    params_.reserve(8);
}

const Token &
Parser::advance()
{
    const Token &t = tokens_[pos_];
    if (pos_ + 1 < tokens_.size())
        ++pos_;
    return t;
}

bool
Parser::match(Tok kind)
{
    if (!check(kind))
        return false;
    advance();
    return true;
}

const Token &
Parser::expect(Tok kind, const char *context)
{
    if (!check(kind)) {
        fatal("%s: expected %s %s, found %s",
              peek().loc.toString().c_str(), tokName(kind), context,
              tokName(peek().kind));
    }
    return advance();
}

template <typename T>
std::span<const T>
Parser::closeList(std::vector<T> &stack, size_t start)
{
    std::span<const T> list = arena_.copy(
        std::span<const T>(stack.data() + start, stack.size() - start));
    stack.resize(start);
    return list;
}

AstProgram
Parser::parseProgram()
{
    AstProgram prog;
    expect(Tok::KwProgram, "at start of program");
    prog.name = arena_.copy(expect(Tok::Ident, "as program name").text);
    expect(Tok::Semi, "after program name");
    prog.main = parseBlock();
    expect(Tok::Dot, "at end of program");
    expect(Tok::EndOfFile, "after final '.'");
    prog.arena = std::move(arena_);
    return prog;
}

ExprPtr
Parser::parseExprOnly()
{
    ExprPtr e = parseExpr();
    expect(Tok::EndOfFile, "after expression");
    return e;
}

Block
Parser::parseBlock()
{
    const size_t consts = consts_.size(), vars = vars_.size(),
                 procs = procs_.size();
    for (;;) {
        if (match(Tok::KwVar)) {
            parseVarDecls();
        } else if (match(Tok::KwConst)) {
            parseConstDecls();
        } else if (check(Tok::KwProc) || check(Tok::KwFunc)) {
            bool is_func = advance().kind == Tok::KwFunc;
            ProcDecl proc = parseProcDecl(is_func);
            procs_.push_back(proc);
        } else {
            break;
        }
    }
    Block block;
    block.consts = closeList(consts_, consts);
    block.vars = closeList(vars_, vars);
    block.procs = closeList(procs_, procs);
    expect(Tok::KwBegin, "at start of block body");
    block.body = parseStmts();
    expect(Tok::KwEnd, "at end of block body");
    return block;
}

void
Parser::parseVarDecls()
{
    do {
        VarDecl var;
        const Token &name = expect(Tok::Ident, "as variable name");
        var.name = arena_.copy(name.text);
        var.loc = name.loc;
        if (match(Tok::LBracket)) {
            const Token &size = expect(Tok::Number, "as array size");
            if (size.value <= 0) {
                fatal("%s: array size must be positive",
                      size.loc.toString().c_str());
            }
            var.arraySize = static_cast<uint32_t>(size.value);
            expect(Tok::RBracket, "after array size");
        }
        vars_.push_back(var);
    } while (match(Tok::Comma));
    expect(Tok::Semi, "after variable declarations");
}

void
Parser::parseConstDecls()
{
    do {
        ConstDecl decl;
        const Token &name = expect(Tok::Ident, "as constant name");
        decl.name = arena_.copy(name.text);
        decl.loc = name.loc;
        expect(Tok::Eq, "in constant declaration");
        bool negative = match(Tok::Minus);
        const Token &value = expect(Tok::Number, "as constant value");
        decl.value = negative ? -value.value : value.value;
        consts_.push_back(decl);
    } while (match(Tok::Comma));
    expect(Tok::Semi, "after constant declarations");
}

ProcDecl
Parser::parseProcDecl(bool is_func)
{
    ProcDecl proc;
    proc.isFunc = is_func;
    const Token &name = expect(Tok::Ident, "as procedure name");
    proc.name = arena_.copy(name.text);
    proc.loc = name.loc;
    expect(Tok::LParen, "after procedure name");
    const size_t params = params_.size();
    if (!check(Tok::RParen)) {
        do {
            params_.push_back(arena_.copy(
                expect(Tok::Ident, "as parameter name").text));
        } while (match(Tok::Comma));
    }
    proc.params = closeList(params_, params);
    expect(Tok::RParen, "after parameter list");
    expect(Tok::Semi, "after procedure header");
    Block *block = arena_.make<Block>();
    *block = parseBlock();
    proc.block = block;
    expect(Tok::Semi, "after procedure body");
    return proc;
}

StmtList
Parser::parseStmts()
{
    const size_t start = stmts_.size();
    while (!check(Tok::KwEnd) && !check(Tok::KwFi) && !check(Tok::KwOd) &&
           !check(Tok::KwElse) && !check(Tok::KwUntil) &&
           !check(Tok::EndOfFile)) {
        StmtPtr stmt = parseStmt();
        stmts_.push_back(stmt);
        expect(Tok::Semi, "after statement");
    }
    return closeList(stmts_, start);
}

StmtPtr
Parser::parseStmt()
{
    Stmt *stmt = arena_.make<Stmt>();
    stmt->loc = peek().loc;
    // Most statements carry one or two expressions: gather them here.
    const size_t exprs = exprs_.size();
    auto push = [&](ExprPtr e) { exprs_.push_back(e); };

    switch (peek().kind) {
      case Tok::Ident: {
        stmt->kind = Stmt::Kind::Assign;
        stmt->name = arena_.copy(advance().text);
        ExprPtr index = nullptr;
        if (match(Tok::LBracket)) {
            index = parseExpr();
            expect(Tok::RBracket, "after array index");
        }
        expect(Tok::Assign, "in assignment");
        push(parseExpr());
        if (index)
            push(index);
        break;
      }
      case Tok::KwIf: {
        advance();
        stmt->kind = Stmt::Kind::If;
        push(parseExpr());
        expect(Tok::KwThen, "in if statement");
        stmt->body = parseStmts();
        if (match(Tok::KwElse))
            stmt->elseBody = parseStmts();
        expect(Tok::KwFi, "at end of if statement");
        break;
      }
      case Tok::KwWhile: {
        advance();
        stmt->kind = Stmt::Kind::While;
        push(parseExpr());
        expect(Tok::KwDo, "in while statement");
        stmt->body = parseStmts();
        expect(Tok::KwOd, "at end of while statement");
        break;
      }
      case Tok::KwFor: {
        advance();
        stmt->kind = Stmt::Kind::For;
        stmt->name =
            arena_.copy(expect(Tok::Ident, "as loop variable").text);
        expect(Tok::Assign, "in for statement");
        push(parseExpr());
        expect(Tok::KwTo, "in for statement");
        push(parseExpr());
        expect(Tok::KwDo, "in for statement");
        stmt->body = parseStmts();
        expect(Tok::KwOd, "at end of for statement");
        break;
      }
      case Tok::KwRepeat: {
        advance();
        stmt->kind = Stmt::Kind::Repeat;
        stmt->body = parseStmts();
        expect(Tok::KwUntil, "at end of repeat statement");
        push(parseExpr());
        break;
      }
      case Tok::KwCall: {
        advance();
        stmt->kind = Stmt::Kind::Call;
        stmt->name =
            arena_.copy(expect(Tok::Ident, "as procedure name").text);
        expect(Tok::LParen, "in call statement");
        stmt->exprs = parseArgs();
        expect(Tok::RParen, "after call arguments");
        return stmt;
      }
      case Tok::KwWrite: {
        advance();
        stmt->kind = Stmt::Kind::Write;
        push(parseExpr());
        break;
      }
      case Tok::KwRead: {
        advance();
        stmt->kind = Stmt::Kind::Read;
        stmt->name = arena_.copy(expect(Tok::Ident, "as read target").text);
        if (match(Tok::LBracket)) {
            push(parseExpr());
            expect(Tok::RBracket, "after array index");
        }
        break;
      }
      case Tok::KwReturn: {
        advance();
        stmt->kind = Stmt::Kind::Return;
        if (!check(Tok::Semi))
            push(parseExpr());
        break;
      }
      default:
        fatal("%s: expected a statement, found %s",
              peek().loc.toString().c_str(), tokName(peek().kind));
    }
    stmt->exprs = closeList(exprs_, exprs);
    return stmt;
}

ExprList
Parser::parseArgs()
{
    const size_t start = exprs_.size();
    if (!check(Tok::RParen)) {
        do {
            ExprPtr arg = parseExpr();
            exprs_.push_back(arg);
        } while (match(Tok::Comma));
    }
    return closeList(exprs_, start);
}

ExprPtr
Parser::parseExpr()
{
    return parseOr();
}

ExprPtr
Parser::makeBinary(AstOp op, ExprPtr lhs, ExprPtr rhs, SourceLoc loc)
{
    Expr *e = arena_.make<Expr>();
    e->kind = Expr::Kind::Binary;
    e->op = op;
    e->loc = loc;
    const ExprPtr kids[] = {lhs, rhs};
    e->kids = arena_.copy(ExprList(kids));
    return e;
}

ExprPtr
Parser::parseOr()
{
    ExprPtr e = parseAnd();
    while (check(Tok::KwOr)) {
        SourceLoc loc = advance().loc;
        e = makeBinary(AstOp::Or, e, parseAnd(), loc);
    }
    return e;
}

ExprPtr
Parser::parseAnd()
{
    ExprPtr e = parseRel();
    while (check(Tok::KwAnd)) {
        SourceLoc loc = advance().loc;
        e = makeBinary(AstOp::And, e, parseRel(), loc);
    }
    return e;
}

ExprPtr
Parser::parseRel()
{
    ExprPtr e = parseAdd();
    AstOp op;
    switch (peek().kind) {
      case Tok::Eq: op = AstOp::Eq; break;
      case Tok::Ne: op = AstOp::Ne; break;
      case Tok::Lt: op = AstOp::Lt; break;
      case Tok::Le: op = AstOp::Le; break;
      case Tok::Gt: op = AstOp::Gt; break;
      case Tok::Ge: op = AstOp::Ge; break;
      default: return e;
    }
    SourceLoc loc = advance().loc;
    return makeBinary(op, e, parseAdd(), loc);
}

ExprPtr
Parser::parseAdd()
{
    ExprPtr e = parseMul();
    for (;;) {
        AstOp op;
        if (check(Tok::Plus))
            op = AstOp::Add;
        else if (check(Tok::Minus))
            op = AstOp::Sub;
        else
            break;
        SourceLoc loc = advance().loc;
        e = makeBinary(op, e, parseMul(), loc);
    }
    return e;
}

ExprPtr
Parser::parseMul()
{
    ExprPtr e = parseUnary();
    for (;;) {
        AstOp op;
        if (check(Tok::Star))
            op = AstOp::Mul;
        else if (check(Tok::Slash))
            op = AstOp::Div;
        else if (check(Tok::Percent))
            op = AstOp::Mod;
        else
            break;
        SourceLoc loc = advance().loc;
        e = makeBinary(op, e, parseUnary(), loc);
    }
    return e;
}

ExprPtr
Parser::parseUnary()
{
    if (check(Tok::Minus) || check(Tok::KwNot)) {
        const Token &t = advance();
        Expr *e = arena_.make<Expr>();
        e->kind = Expr::Kind::Unary;
        e->op = t.kind == Tok::Minus ? AstOp::Neg : AstOp::Not;
        e->loc = t.loc;
        const ExprPtr operand[] = {parseUnary()};
        e->kids = arena_.copy(ExprList(operand));
        return e;
    }
    return parsePrimary();
}

ExprPtr
Parser::parsePrimary()
{
    const SourceLoc loc = peek().loc;
    if (check(Tok::Number)) {
        Expr *e = arena_.make<Expr>();
        e->loc = loc;
        e->kind = Expr::Kind::Number;
        e->value = advance().value;
        return e;
    }
    if (match(Tok::LParen)) {
        ExprPtr e = parseExpr();
        expect(Tok::RParen, "after parenthesized expression");
        return e;
    }
    if (check(Tok::Ident)) {
        Expr *e = arena_.make<Expr>();
        e->loc = loc;
        e->name = arena_.copy(advance().text);
        if (match(Tok::LBracket)) {
            e->kind = Expr::Kind::Index;
            const ExprPtr index[] = {parseExpr()};
            e->kids = arena_.copy(ExprList(index));
            expect(Tok::RBracket, "after array index");
        } else if (match(Tok::LParen)) {
            e->kind = Expr::Kind::Call;
            e->kids = parseArgs();
            expect(Tok::RParen, "after call arguments");
        } else {
            e->kind = Expr::Kind::Var;
        }
        return e;
    }
    fatal("%s: expected an expression, found %s",
          peek().loc.toString().c_str(), tokName(peek().kind));
}

AstProgram
parse(const std::string &source)
{
    Lexer lexer(source);
    Parser parser(lexer.lexAll());
    return parser.parseProgram();
}

std::string
toString(const Expr &expr)
{
    std::ostringstream os;
    switch (expr.kind) {
      case Expr::Kind::Number:
        os << expr.value;
        break;
      case Expr::Kind::Var:
        os << expr.name;
        break;
      case Expr::Kind::Index:
        os << expr.name << "[" << toString(*expr.kids[0]) << "]";
        break;
      case Expr::Kind::Call: {
        os << expr.name << "(";
        for (size_t i = 0; i < expr.kids.size(); ++i)
            os << (i ? ", " : "") << toString(*expr.kids[i]);
        os << ")";
        break;
      }
      case Expr::Kind::Unary: {
        os << (expr.op == AstOp::Neg ? "-" : "not ")
           << toString(*expr.kids[0]);
        break;
      }
      case Expr::Kind::Binary: {
        const char *sym = "?";
        switch (expr.op) {
          case AstOp::Add: sym = "+"; break;
          case AstOp::Sub: sym = "-"; break;
          case AstOp::Mul: sym = "*"; break;
          case AstOp::Div: sym = "/"; break;
          case AstOp::Mod: sym = "%"; break;
          case AstOp::Eq:  sym = "="; break;
          case AstOp::Ne:  sym = "<>"; break;
          case AstOp::Lt:  sym = "<"; break;
          case AstOp::Le:  sym = "<="; break;
          case AstOp::Gt:  sym = ">"; break;
          case AstOp::Ge:  sym = ">="; break;
          case AstOp::And: sym = "and"; break;
          case AstOp::Or:  sym = "or"; break;
          default: break;
        }
        os << "(" << toString(*expr.kids[0]) << " " << sym << " "
           << toString(*expr.kids[1]) << ")";
        break;
      }
    }
    return os.str();
}

} // namespace uhm::hlr
