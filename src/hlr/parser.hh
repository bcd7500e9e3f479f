/**
 * @file
 * Recursive-descent parser for the Contour language.
 *
 * Grammar:
 * @verbatim
 *   program  := 'program' IDENT ';' block '.'
 *   block    := { decl } 'begin' stmts 'end'
 *   decl     := 'var' vardecl { ',' vardecl } ';'
 *             | 'const' IDENT '=' ['-'] NUMBER { ',' ... } ';'
 *             | ('proc'|'func') IDENT '(' [ params ] ')' ';' block ';'
 *   vardecl  := IDENT [ '[' NUMBER ']' ]
 *   params   := IDENT { ',' IDENT }
 *   stmts    := { stmt ';' }
 *   stmt     := IDENT [ '[' expr ']' ] ':=' expr
 *             | 'if' expr 'then' stmts [ 'else' stmts ] 'fi'
 *             | 'while' expr 'do' stmts 'od'
 *             | 'for' IDENT ':=' expr 'to' expr 'do' stmts 'od'
 *             | 'repeat' stmts 'until' expr
 *             | 'call' IDENT '(' [ args ] ')'
 *             | 'write' expr | 'read' IDENT [ '[' expr ']' ]
 *             | 'return' [ expr ]
 *   expr     := or-expr with the usual precedence ladder:
 *               or < and < relational < additive < multiplicative < unary
 *   primary  := NUMBER | IDENT | IDENT '[' expr ']' | IDENT '(' args ')'
 *             | '(' expr ')'
 * @endverbatim
 *
 * 'and'/'or'/'not' are boolean operators over truthiness (nonzero is
 * true) and do not short-circuit.
 */

#ifndef UHM_HLR_PARSER_HH
#define UHM_HLR_PARSER_HH

#include <string>
#include <vector>

#include "hlr/ast.hh"
#include "hlr/token.hh"

namespace uhm::hlr
{

/** Parse errors raise FatalError with "line:col: message". */
class Parser
{
  public:
    explicit Parser(std::vector<Token> tokens);

    /** Parse a whole program; it takes over the parser's arena. */
    AstProgram parseProgram();

    /** Parse a standalone expression (testing hook); the tree lives
     *  as long as the parser. */
    ExprPtr parseExprOnly();

  private:
    const Token &peek() const { return tokens_[pos_]; }
    const Token &advance();
    bool check(Tok kind) const { return peek().kind == kind; }
    bool match(Tok kind);
    const Token &expect(Tok kind, const char *context);

    /** Move the items pushed on @p stack since @p start into the
     *  arena, as one list. */
    template <typename T>
    std::span<const T> closeList(std::vector<T> &stack, size_t start);

    Block parseBlock();
    void parseVarDecls();
    void parseConstDecls();
    ProcDecl parseProcDecl(bool is_func);
    StmtList parseStmts();
    StmtPtr parseStmt();
    ExprList parseArgs();

    ExprPtr parseExpr();
    ExprPtr parseOr();
    ExprPtr parseAnd();
    ExprPtr parseRel();
    ExprPtr parseAdd();
    ExprPtr parseMul();
    ExprPtr parseUnary();
    ExprPtr parsePrimary();
    ExprPtr makeBinary(AstOp op, ExprPtr lhs, ExprPtr rhs, SourceLoc loc);

    std::vector<Token> tokens_;
    size_t pos_ = 0;
    AstArena arena_;
    // Lists under construction, one stack per element type: a nested
    // list opens and closes above its parent's pending items.
    std::vector<ExprPtr> exprs_;
    std::vector<StmtPtr> stmts_;
    std::vector<ConstDecl> consts_;
    std::vector<VarDecl> vars_;
    std::vector<ProcDecl> procs_;
    std::vector<std::string_view> params_;
};

/** Convenience: lex and parse @p source. */
AstProgram parse(const std::string &source);

} // namespace uhm::hlr

#endif // UHM_HLR_PARSER_HH
