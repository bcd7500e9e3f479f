/**
 * @file
 * Abstract syntax tree of the Contour language.
 *
 * The tree is the program's high-level representation: names are still
 * symbolic, scoping is implicit in block nesting, and expressions are
 * hierarchical — the properties the compiler's binding step removes when
 * lowering to the DIR.
 *
 * Nodes are tagged structs (a Kind enum plus child lists) rather than
 * a class-per-node hierarchy; the grammar is small enough that a single
 * shape keeps the parser, the compiler and the direct interpreter short.
 *
 * Every node, list and name of one parse lives in the AstProgram's
 * arena: a parse makes a handful of large allocations instead of one
 * per node, and the tree is freed in one go. Nodes are trivially
 * destructible; lists are spans and names are views into the arena.
 */

#ifndef UHM_HLR_AST_HH
#define UHM_HLR_AST_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "hlr/token.hh"

namespace uhm::hlr
{

/**
 * Bump allocator owning every node of one parse. Chunks double in
 * size, so a parse of n bytes of nodes makes O(log n) allocations;
 * nothing is freed before the arena.
 */
class AstArena
{
  public:
    AstArena() = default;
    // A moved-from arena is empty: its bump cursor must not point into
    // chunks another arena now owns.
    AstArena(AstArena &&other) noexcept { *this = std::move(other); }
    AstArena &
    operator=(AstArena &&other) noexcept
    {
        chunks_ = std::move(other.chunks_);
        next_ = std::exchange(other.next_, nullptr);
        left_ = std::exchange(other.left_, 0);
        chunkBytes_ = other.chunkBytes_;
        return *this;
    }

    /** A value-initialized @p T in the arena. */
    template <typename T>
    T *
    make()
    {
        static_assert(std::is_trivially_destructible_v<T>);
        return new (allocate(sizeof(T), alignof(T))) T{};
    }

    /** A copy of @p items in the arena. */
    template <typename T>
    std::span<const T>
    copy(std::span<const T> items)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        if (items.empty())
            return {};
        void *p = allocate(items.size_bytes(), alignof(T));
        std::memcpy(p, items.data(), items.size_bytes());
        return {static_cast<const T *>(p), items.size()};
    }

    /** A copy of @p text in the arena. */
    std::string_view
    copy(std::string_view text)
    {
        auto chars = copy(std::span<const char>(text));
        return {chars.data(), chars.size()};
    }

  private:
    void *allocate(size_t bytes, size_t align);

    std::vector<std::unique_ptr<std::byte[]>> chunks_;
    std::byte *next_ = nullptr;
    size_t left_ = 0;
    size_t chunkBytes_ = 4096;
};

/** Binary and unary operators (shared tag space). */
enum class AstOp : uint8_t
{
    Add, Sub, Mul, Div, Mod,
    Eq, Ne, Lt, Le, Gt, Ge,
    And, Or,
    Neg, Not,
    None
};

struct Expr;
struct Stmt;

/** A node's children, held by the arena. */
using ExprPtr = const Expr *;
using StmtPtr = const Stmt *;
using ExprList = std::span<const ExprPtr>;
using StmtList = std::span<const StmtPtr>;

/** Expression node. */
struct Expr
{
    enum class Kind : uint8_t
    {
        Number,   ///< integer literal (value)
        Var,      ///< scalar variable reference (name)
        Index,    ///< array element (name, kids[0] = index)
        Call,     ///< function call (name, kids = args)
        Unary,    ///< op, kids[0]
        Binary,   ///< op, kids[0], kids[1]
    };

    Kind kind = Kind::Number;
    SourceLoc loc;
    int64_t value = 0;
    std::string_view name;
    AstOp op = AstOp::None;
    ExprList kids;
};

struct Block;

/** Statement node. */
struct Stmt
{
    enum class Kind : uint8_t
    {
        Assign,    ///< name [index] := value; exprs[0]=value, exprs[1]=index?
        If,        ///< exprs[0]=cond, body=then, elseBody=else
        While,     ///< exprs[0]=cond, body
        Call,      ///< call name(args); exprs = args
        Write,     ///< exprs[0]
        Read,      ///< read name [index]; exprs[0]=index?
        Return,    ///< exprs[0]=value?
        For,       ///< for name := exprs[0] to exprs[1] do body od
        Repeat,    ///< repeat body until exprs[0]
    };

    Kind kind = Kind::Assign;
    SourceLoc loc;
    std::string_view name;
    ExprList exprs;
    StmtList body;
    StmtList elseBody;
};

/** A named compile-time constant. */
struct ConstDecl
{
    std::string_view name;
    int64_t value = 0;
    SourceLoc loc;
};

/** A declared variable: scalar (arraySize 0) or array. */
struct VarDecl
{
    std::string_view name;
    /** 0 for a scalar; otherwise the number of elements. */
    uint32_t arraySize = 0;
    SourceLoc loc;
};

/** A procedure or function declaration. */
struct ProcDecl
{
    std::string_view name;
    std::span<const std::string_view> params;
    bool isFunc = false;
    const Block *block = nullptr;
    SourceLoc loc;
};

/** A block: declarations followed by a statement list. */
struct Block
{
    std::span<const ConstDecl> consts;
    std::span<const VarDecl> vars;
    std::span<const ProcDecl> procs;
    StmtList body;
};

/** A whole parsed program, with the arena that holds it. */
struct AstProgram
{
    std::string_view name;
    Block main;
    AstArena arena;
};

/** Pretty-print an expression (round-trip tests). */
std::string toString(const Expr &expr);

} // namespace uhm::hlr

#endif // UHM_HLR_AST_HH
