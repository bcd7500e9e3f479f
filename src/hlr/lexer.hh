/**
 * @file
 * Lexer for the Contour language.
 */

#ifndef UHM_HLR_LEXER_HH
#define UHM_HLR_LEXER_HH

#include <string_view>
#include <vector>

#include "hlr/token.hh"

namespace uhm::hlr
{

/**
 * Turns source text into a token stream. Comments run from '#' to end of
 * line. Lexical errors raise FatalError with a source location.
 */
class Lexer
{
  public:
    /** @param source the text to lex; must outlive the lexer. */
    explicit Lexer(std::string_view source);

    /** Lex the whole input; the last token is always EndOfFile. */
    std::vector<Token> lexAll();

  private:
    Token next();
    char peek() const;
    char advance();
    bool atEnd() const { return pos_ >= src_.size(); }

    std::string_view src_;
    size_t pos_ = 0;
    /** Line of the cursor, and where that line starts: a token's
     *  column is its distance from the line start. */
    int line_ = 1;
    size_t lineStart_ = 0;
};

} // namespace uhm::hlr

#endif // UHM_HLR_LEXER_HH
