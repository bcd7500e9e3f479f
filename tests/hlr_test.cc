/**
 * @file
 * Tests for the Contour HLR front end: lexer, parser, compiler
 * (semantic analysis + code generation) and the direct AST interpreter.
 */

#include <gtest/gtest.h>

#include "hlr/compiler.hh"
#include "hlr/interp.hh"
#include "hlr/lexer.hh"
#include "hlr/parser.hh"
#include "support/logging.hh"
#include "workload/samples.hh"

namespace uhm::hlr
{
namespace
{

// ---- lexer -----------------------------------------------------------------

std::vector<Token>
lex(const std::string &src)
{
    return Lexer(src).lexAll();
}

TEST(Lexer, BasicTokens)
{
    auto toks = lex("x := 42 + y;");
    ASSERT_EQ(toks.size(), 7u);
    EXPECT_EQ(toks[0].kind, Tok::Ident);
    EXPECT_EQ(toks[0].text, "x");
    EXPECT_EQ(toks[1].kind, Tok::Assign);
    EXPECT_EQ(toks[2].kind, Tok::Number);
    EXPECT_EQ(toks[2].value, 42);
    EXPECT_EQ(toks[3].kind, Tok::Plus);
    EXPECT_EQ(toks[4].kind, Tok::Ident);
    EXPECT_EQ(toks[5].kind, Tok::Semi);
    EXPECT_EQ(toks[6].kind, Tok::EndOfFile);
}

TEST(Lexer, KeywordsAreNotIdentifiers)
{
    auto toks = lex("while whilex");
    EXPECT_EQ(toks[0].kind, Tok::KwWhile);
    EXPECT_EQ(toks[1].kind, Tok::Ident);
    EXPECT_EQ(toks[1].text, "whilex");
}

TEST(Lexer, TwoCharOperators)
{
    auto toks = lex("<= >= <> < > =");
    EXPECT_EQ(toks[0].kind, Tok::Le);
    EXPECT_EQ(toks[1].kind, Tok::Ge);
    EXPECT_EQ(toks[2].kind, Tok::Ne);
    EXPECT_EQ(toks[3].kind, Tok::Lt);
    EXPECT_EQ(toks[4].kind, Tok::Gt);
    EXPECT_EQ(toks[5].kind, Tok::Eq);
}

TEST(Lexer, CommentsAreSkipped)
{
    auto toks = lex("a # the rest is noise ; := while\nb");
    ASSERT_EQ(toks.size(), 3u);
    EXPECT_EQ(toks[0].text, "a");
    EXPECT_EQ(toks[1].text, "b");
}

TEST(Lexer, TracksLineAndColumn)
{
    auto toks = lex("a\n  b");
    EXPECT_EQ(toks[0].loc.line, 1);
    EXPECT_EQ(toks[0].loc.col, 1);
    EXPECT_EQ(toks[1].loc.line, 2);
    EXPECT_EQ(toks[1].loc.col, 3);
}

TEST(Lexer, StrayCharacterIsFatal)
{
    EXPECT_THROW(lex("a ? b"), FatalError);
}

TEST(Lexer, LoneColonIsFatal)
{
    EXPECT_THROW(lex("a : b"), FatalError);
}

TEST(Lexer, HugeLiteralIsFatal)
{
    EXPECT_THROW(lex("99999999999999999999999999"), FatalError);
}

// ---- parser ----------------------------------------------------------------

std::string
parseExprToString(const std::string &src)
{
    Parser parser(lex(src));
    return toString(*parser.parseExprOnly());
}

TEST(Parser, MulBindsTighterThanAdd)
{
    EXPECT_EQ(parseExprToString("1 + 2 * 3"), "(1 + (2 * 3))");
    EXPECT_EQ(parseExprToString("(1 + 2) * 3"), "((1 + 2) * 3)");
}

TEST(Parser, LeftAssociativity)
{
    EXPECT_EQ(parseExprToString("1 - 2 - 3"), "((1 - 2) - 3)");
    EXPECT_EQ(parseExprToString("8 / 4 / 2"), "((8 / 4) / 2)");
}

TEST(Parser, RelationalBelowLogical)
{
    EXPECT_EQ(parseExprToString("a < b and c > d"),
              "((a < b) and (c > d))");
    EXPECT_EQ(parseExprToString("a or b and c"), "(a or (b and c))");
}

TEST(Parser, UnaryOperators)
{
    EXPECT_EQ(parseExprToString("-x + 1"), "(-x + 1)");
    EXPECT_EQ(parseExprToString("not a and b"), "(not a and b)");
    EXPECT_EQ(parseExprToString("- - x"), "--x");
}

TEST(Parser, IndexAndCallPrimaries)
{
    EXPECT_EQ(parseExprToString("a[i + 1]"), "a[(i + 1)]");
    EXPECT_EQ(parseExprToString("f(1, g(2), h())"), "f(1, g(2), h())");
}

TEST(Parser, FullProgramStructure)
{
    AstProgram prog = parse(R"(
program demo;
var a, b[10];
proc p(x, y);
begin
  a := x + y;
end;
begin
  call p(1, 2);
  if a > 0 then write a; else write 0; fi;
  while a > 0 do a := a - 1; od;
end.
)");
    EXPECT_EQ(prog.name, "demo");
    ASSERT_EQ(prog.main.vars.size(), 2u);
    EXPECT_EQ(prog.main.vars[0].arraySize, 0u);
    EXPECT_EQ(prog.main.vars[1].arraySize, 10u);
    ASSERT_EQ(prog.main.procs.size(), 1u);
    EXPECT_EQ(prog.main.procs[0].params.size(), 2u);
    EXPECT_FALSE(prog.main.procs[0].isFunc);
    ASSERT_EQ(prog.main.body.size(), 3u);
    EXPECT_EQ(prog.main.body[0]->kind, Stmt::Kind::Call);
    EXPECT_EQ(prog.main.body[1]->kind, Stmt::Kind::If);
    EXPECT_FALSE(prog.main.body[1]->elseBody.empty());
    EXPECT_EQ(prog.main.body[2]->kind, Stmt::Kind::While);
}

TEST(Parser, MissingSemicolonIsFatal)
{
    EXPECT_THROW(parse("program p; begin a := 1 end."), FatalError);
}

TEST(Parser, MissingDotIsFatal)
{
    EXPECT_THROW(parse("program p; begin end"), FatalError);
}

TEST(Parser, ZeroArraySizeIsFatal)
{
    EXPECT_THROW(parse("program p; var a[0]; begin end."), FatalError);
}

TEST(Parser, GarbageStatementIsFatal)
{
    EXPECT_THROW(parse("program p; begin od; end."), FatalError);
}

TEST(Parser, AllSamplesParse)
{
    for (const auto &sample : workload::samplePrograms())
        EXPECT_NO_THROW(parse(sample.source)) << sample.name;
}

// ---- compiler --------------------------------------------------------------

TEST(Compiler, AllSamplesCompileAndValidate)
{
    for (const auto &sample : workload::samplePrograms()) {
        DirProgram prog = compileSource(sample.source);
        EXPECT_GT(prog.size(), 0u) << sample.name;
        EXPECT_NO_THROW(prog.validate()) << sample.name;
    }
}

TEST(Compiler, GlobalsGetDepthZeroSlots)
{
    DirProgram prog = compileSource(
        "program p; var a, b[3], c; begin c := 5; end.");
    EXPECT_EQ(prog.numGlobals, 5u); // a, b[3], c
    // c := 5 -> PUSHC 5; STOREL 0 4.
    bool found = false;
    for (const auto &ins : prog.instrs) {
        if (ins.op == Op::STOREL) {
            EXPECT_EQ(ins.operands[0], 0);
            EXPECT_EQ(ins.operands[1], 4);
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

TEST(Compiler, ContourTableForNestedProcs)
{
    DirProgram prog = compileSource(
        workload::sampleByName("nest").source);
    ASSERT_EQ(prog.contours.size(), 3u); // main, outer, inner
    const Contour &outer = prog.contours[1];
    const Contour &inner = prog.contours[2];
    EXPECT_EQ(outer.depth, 2u);
    EXPECT_EQ(inner.depth, 3u);
    EXPECT_EQ(outer.nparams, 1u);
    EXPECT_EQ(outer.nlocals, 2u); // k, u
    EXPECT_TRUE(inner.isFunc);
    ASSERT_EQ(inner.slotsAtDepth.size(), 4u);
    EXPECT_EQ(inner.slotsAtDepth[0], prog.numGlobals);
    EXPECT_EQ(inner.slotsAtDepth[2], outer.nlocals);
}

TEST(Compiler, FunctionsGetImplicitZeroReturn)
{
    DirProgram prog = compileSource(
        "program p; func f(); begin end; begin write f(); end.");
    // The function body should end PUSHC 0; RET.
    const Contour &f = prog.contours[1];
    EXPECT_EQ(prog.instrs[f.entry].op, Op::ENTER);
    bool has_push_zero_ret = false;
    for (size_t i = f.entry; i + 1 < prog.size(); ++i) {
        if (prog.instrs[i].op == Op::PUSHC &&
            prog.instrs[i].operands[0] == 0 &&
            prog.instrs[i + 1].op == Op::RET) {
            has_push_zero_ret = true;
        }
    }
    EXPECT_TRUE(has_push_zero_ret);
}

TEST(Compiler, UndeclaredNameIsFatal)
{
    EXPECT_THROW(compileSource("program p; begin x := 1; end."),
                 FatalError);
}

TEST(Compiler, RedeclarationIsFatal)
{
    EXPECT_THROW(compileSource("program p; var a, a; begin end."),
                 FatalError);
}

TEST(Compiler, ArityMismatchIsFatal)
{
    EXPECT_THROW(compileSource(
        "program p; proc q(x); begin end; begin call q(1, 2); end."),
        FatalError);
}

TEST(Compiler, IndexingScalarIsFatal)
{
    EXPECT_THROW(compileSource(
        "program p; var a; begin a[0] := 1; end."), FatalError);
}

TEST(Compiler, ArrayWithoutIndexIsFatal)
{
    EXPECT_THROW(compileSource(
        "program p; var a[4]; begin a := 1; end."), FatalError);
}

TEST(Compiler, CallingVariableIsFatal)
{
    EXPECT_THROW(compileSource(
        "program p; var a; begin call a(); end."), FatalError);
}

TEST(Compiler, UsingProcAsValueIsFatal)
{
    EXPECT_THROW(compileSource(
        "program p; proc q(); begin end; begin write q(); end."),
        FatalError);
}

TEST(Compiler, ValueReturnFromProcIsFatal)
{
    EXPECT_THROW(compileSource(
        "program p; proc q(); begin return 3; end; begin end."),
        FatalError);
}

TEST(Compiler, ValueReturnFromMainIsFatal)
{
    EXPECT_THROW(compileSource("program p; begin return 3; end."),
                 FatalError);
}

TEST(Compiler, MultipleErrorsAreAllReported)
{
    try {
        compileSource("program p; begin x := 1; y := 2; end.");
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("'x'"), std::string::npos);
        EXPECT_NE(msg.find("'y'"), std::string::npos);
    }
}

TEST(Compiler, SiblingProceduresCanCallEachOther)
{
    EXPECT_NO_THROW(compileSource(R"(
program p;
var n;
proc even(k);
begin
  if k = 0 then n := 1; else call odd(k - 1); fi;
end;
proc odd(k);
begin
  if k = 0 then n := 0; else call even(k - 1); fi;
end;
begin
  call even(10);
  write n;
end.
)"));
}

TEST(Compiler, ConstantsFoldToPushc)
{
    DirProgram prog = compileSource(
        "program p; const k = 7; var a; begin a := k + k; write a; "
        "end.");
    // No variable slot for k.
    EXPECT_EQ(prog.numGlobals, 1u);
    size_t pushc7 = 0;
    for (const auto &ins : prog.instrs) {
        pushc7 += ins.op == Op::PUSHC && ins.operands[0] == 7;
    }
    EXPECT_EQ(pushc7, 2u);
}

TEST(Compiler, NegativeConstants)
{
    DirProgram prog = compileSource(
        "program p; const k = -5; begin write k; end.");
    bool found = false;
    for (const auto &ins : prog.instrs)
        found |= ins.op == Op::PUSHC && ins.operands[0] == -5;
    EXPECT_TRUE(found);
}

TEST(Compiler, AssigningConstantIsFatal)
{
    EXPECT_THROW(compileSource(
        "program p; const k = 1; begin k := 2; end."), FatalError);
}

TEST(Compiler, ReadingIntoConstantIsFatal)
{
    EXPECT_THROW(compileSource(
        "program p; const k = 1; begin read k; end."), FatalError);
}

TEST(Compiler, ForLoopCompilesToCountedWhile)
{
    DirProgram prog = compileSource(
        "program p; var i, s; begin s := 0; "
        "for i := 1 to 4 do s := s + i; od; write s; end.");
    // The loop uses LE for its bound test.
    bool has_le = false;
    for (const auto &ins : prog.instrs)
        has_le |= ins.op == Op::LE;
    EXPECT_TRUE(has_le);
}

TEST(Compiler, ForLoopVariableMustBeScalar)
{
    EXPECT_THROW(compileSource(
        "program p; var a[3]; begin for a := 1 to 2 do od; end."),
        FatalError);
    EXPECT_THROW(compileSource(
        "program p; const k = 1; begin for k := 1 to 2 do od; end."),
        FatalError);
}

TEST(Compiler, RepeatUntilRunsBodyAtLeastOnce)
{
    // Semantics verified through the interpreter below; here just check
    // the shape: a backward JZ.
    DirProgram prog = compileSource(
        "program p; var i; begin i := 0; "
        "repeat i := i + 1; until i >= 3; write i; end.");
    bool backward_jz = false;
    for (size_t k = 0; k < prog.size(); ++k) {
        const auto &ins = prog.instrs[k];
        backward_jz |= ins.op == Op::JZ &&
            static_cast<size_t>(ins.operands[0]) < k;
    }
    EXPECT_TRUE(backward_jz);
}

// ---- direct HLR interpretation ---------------------------------------------

TEST(HlrInterp, SamplesProduceExpectedOutput)
{
    for (const auto &sample : workload::samplePrograms()) {
        if (sample.expected.empty())
            continue;
        AstProgram ast = parse(sample.source);
        HlrRunResult result = interpretHlr(ast, sample.input);
        EXPECT_EQ(result.output, sample.expected) << sample.name;
    }
}

TEST(HlrInterp, CountsAssociativeSearchWork)
{
    AstProgram ast = parse(workload::sampleByName("sieve").source);
    HlrRunResult result = interpretHlr(ast);
    // Every name reference costs table-search comparisons; a sieve over
    // 1000 elements performs tens of thousands.
    EXPECT_GT(result.nameSearchSteps, 10'000u);
    EXPECT_GT(result.stmts, 1'000u);
}

TEST(HlrInterp, StatementBudgetGuardsRunaways)
{
    AstProgram ast = parse(
        "program p; var a; begin a := 1; while 1 do a := a + 1; od; end.");
    EXPECT_THROW(interpretHlr(ast, {}, 1000), FatalError);
}

TEST(HlrInterp, DivisionByZeroIsFatal)
{
    AstProgram ast = parse(
        "program p; var a; begin a := 0; write 1 / a; end.");
    EXPECT_THROW(interpretHlr(ast), FatalError);
}

TEST(HlrInterp, ArrayBoundsAreChecked)
{
    AstProgram ast = parse(
        "program p; var a[3]; begin a[5] := 1; end.");
    EXPECT_THROW(interpretHlr(ast), FatalError);
}

TEST(HlrInterp, MissingInputReadsZero)
{
    AstProgram ast = parse(
        "program p; var v; begin read v; write v + 1; end.");
    HlrRunResult result = interpretHlr(ast, {});
    EXPECT_EQ(result.output, std::vector<int64_t>{1});
}

TEST(HlrInterp, ForLoopSemantics)
{
    AstProgram ast = parse(
        "program p; var i, s; begin s := 0; "
        "for i := 2 to 5 do s := s * 10 + i; od; write s; write i; "
        "end.");
    HlrRunResult r = interpretHlr(ast);
    EXPECT_EQ(r.output, (std::vector<int64_t>{2345, 6}));
}

TEST(HlrInterp, ForLoopWithEmptyRange)
{
    AstProgram ast = parse(
        "program p; var i, s; begin s := 9; "
        "for i := 5 to 2 do s := 0; od; write s; end.");
    EXPECT_EQ(interpretHlr(ast).output, std::vector<int64_t>{9});
}

TEST(HlrInterp, RepeatRunsAtLeastOnce)
{
    AstProgram ast = parse(
        "program p; var i; begin i := 100; "
        "repeat i := i + 1; until 1; write i; end.");
    EXPECT_EQ(interpretHlr(ast).output, std::vector<int64_t>{101});
}

TEST(HlrInterp, ConstantsAreImmutable)
{
    AstProgram ast = parse(
        "program p; const k = 3; begin k := 4; end.");
    EXPECT_THROW(interpretHlr(ast), FatalError);
}

TEST(HlrInterp, ConstantsShadowableInProcs)
{
    AstProgram ast = parse(
        "program p; const k = 3; "
        "func f(); const k = 10; begin return k; end; "
        "begin write k + f(); end.");
    EXPECT_EQ(interpretHlr(ast).output, std::vector<int64_t>{13});
}

TEST(HlrInterp, RecursionSeesCorrectLexicalScope)
{
    // The inner function must see the *current* activation of outer.
    AstProgram ast = parse(R"(
program scopes;
var out;
proc outer(depth);
var mine;
func probe();
begin
  return mine;
end;
begin
  mine := depth * 10;
  if depth > 0 then call outer(depth - 1); fi;
  out := out + probe();
end;
begin
  out := 0;
  call outer(3);
  write out;
end.
)");
    // probe() returns 0,10,20,30 across the unwinding -> 60.
    HlrRunResult result = interpretHlr(ast);
    EXPECT_EQ(result.output, std::vector<int64_t>{60});
}

} // anonymous namespace
} // namespace uhm::hlr
