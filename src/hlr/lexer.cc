#include "hlr/lexer.hh"

#include <algorithm>
#include <array>
#include <utility>

#include "support/logging.hh"

namespace uhm::hlr
{

const char *
tokName(Tok kind)
{
    switch (kind) {
      case Tok::Number:    return "number";
      case Tok::Ident:     return "identifier";
      case Tok::KwProgram: return "'program'";
      case Tok::KwVar:     return "'var'";
      case Tok::KwConst:   return "'const'";
      case Tok::KwProc:    return "'proc'";
      case Tok::KwFunc:    return "'func'";
      case Tok::KwBegin:   return "'begin'";
      case Tok::KwEnd:     return "'end'";
      case Tok::KwIf:      return "'if'";
      case Tok::KwThen:    return "'then'";
      case Tok::KwElse:    return "'else'";
      case Tok::KwFi:      return "'fi'";
      case Tok::KwWhile:   return "'while'";
      case Tok::KwDo:      return "'do'";
      case Tok::KwOd:      return "'od'";
      case Tok::KwFor:     return "'for'";
      case Tok::KwTo:      return "'to'";
      case Tok::KwRepeat:  return "'repeat'";
      case Tok::KwUntil:   return "'until'";
      case Tok::KwCall:    return "'call'";
      case Tok::KwWrite:   return "'write'";
      case Tok::KwRead:    return "'read'";
      case Tok::KwReturn:  return "'return'";
      case Tok::KwAnd:     return "'and'";
      case Tok::KwOr:      return "'or'";
      case Tok::KwNot:     return "'not'";
      case Tok::Semi:      return "';'";
      case Tok::Comma:     return "','";
      case Tok::LParen:    return "'('";
      case Tok::RParen:    return "')'";
      case Tok::LBracket:  return "'['";
      case Tok::RBracket:  return "']'";
      case Tok::Dot:       return "'.'";
      case Tok::Assign:    return "':='";
      case Tok::Plus:      return "'+'";
      case Tok::Minus:     return "'-'";
      case Tok::Star:      return "'*'";
      case Tok::Slash:     return "'/'";
      case Tok::Percent:   return "'%%'";
      case Tok::Eq:        return "'='";
      case Tok::Ne:        return "'<>'";
      case Tok::Lt:        return "'<'";
      case Tok::Le:        return "'<='";
      case Tok::Gt:        return "'>'";
      case Tok::Ge:        return "'>='";
      case Tok::EndOfFile: return "end of input";
    }
    return "?";
}

namespace
{

/** Character classes, one table load per character (the C locale's
 *  isspace/isdigit, and isalpha plus '_' for words). */
enum CharClass : uint8_t
{
    classSpace = 1,
    classDigit = 2,
    classWord = 4,
};

constexpr std::array<uint8_t, 256> charClasses = [] {
    std::array<uint8_t, 256> t{};
    for (unsigned char c : {' ', '\t', '\n', '\v', '\f', '\r'})
        t[c] = classSpace;
    for (int c = '0'; c <= '9'; ++c)
        t[c] = classDigit;
    for (int c = 'a'; c <= 'z'; ++c)
        t[c] = t[c - 'a' + 'A'] = classWord;
    t['_'] = classWord;
    return t;
}();

/** True when @p c is in any of @p classes. */
bool
isClass(char c, uint8_t classes)
{
    return (charClasses[static_cast<unsigned char>(c)] & classes) != 0;
}

/** The keyword spelled @p word, or Tok::Ident when none is. */
Tok
keywordOf(std::string_view word)
{
    static constexpr std::pair<std::string_view, Tok> keywords[] = {
        {"and", Tok::KwAnd},       {"begin", Tok::KwBegin},
        {"call", Tok::KwCall},     {"const", Tok::KwConst},
        {"do", Tok::KwDo},         {"else", Tok::KwElse},
        {"end", Tok::KwEnd},       {"fi", Tok::KwFi},
        {"for", Tok::KwFor},       {"func", Tok::KwFunc},
        {"if", Tok::KwIf},         {"not", Tok::KwNot},
        {"od", Tok::KwOd},         {"or", Tok::KwOr},
        {"proc", Tok::KwProc},     {"program", Tok::KwProgram},
        {"read", Tok::KwRead},     {"repeat", Tok::KwRepeat},
        {"return", Tok::KwReturn}, {"then", Tok::KwThen},
        {"to", Tok::KwTo},         {"until", Tok::KwUntil},
        {"var", Tok::KwVar},       {"while", Tok::KwWhile},
        {"write", Tok::KwWrite},
    };
    static_assert(std::ranges::is_sorted(keywords, {},
                                         &std::pair<std::string_view,
                                                    Tok>::first));
    auto it = std::ranges::lower_bound(keywords, word, {},
                                       &std::pair<std::string_view,
                                                  Tok>::first);
    return it != std::end(keywords) && it->first == word ? it->second :
        Tok::Ident;
}

} // anonymous namespace

Lexer::Lexer(std::string_view source) : src_(source) {}

char
Lexer::peek() const
{
    return atEnd() ? '\0' : src_[pos_];
}

char
Lexer::advance()
{
    char c = src_[pos_++];
    if (c == '\n') {
        ++line_;
        lineStart_ = pos_;
    }
    return c;
}

std::vector<Token>
Lexer::lexAll()
{
    std::vector<Token> tokens;
    // About one token per four source bytes: one allocation for most
    // programs, and growth covers the rest.
    tokens.reserve(src_.size() / 4 + 1);
    do {
        tokens.push_back(next());
    } while (tokens.back().kind != Tok::EndOfFile);
    return tokens;
}

Token
Lexer::next()
{
    // Skip whitespace and '#' comments.
    for (;;) {
        while (!atEnd() && isClass(peek(), classSpace))
            advance();
        if (!atEnd() && peek() == '#') {
            // The comment's newline is left to the whitespace loop.
            const size_t end = src_.find('\n', pos_);
            pos_ = end == std::string_view::npos ? src_.size() : end;
            continue;
        }
        break;
    }

    Token t;
    t.loc = {line_, static_cast<int>(pos_ - lineStart_) + 1};
    if (atEnd()) {
        t.kind = Tok::EndOfFile;
        return t;
    }

    char c = advance();

    if (isClass(c, classDigit)) {
        int64_t v = c - '0';
        while (!atEnd() &&
               isClass(peek(), classDigit)) {
            int64_t digit = advance() - '0';
            if (v > (INT64_MAX - digit) / 10) {
                fatal("%s: integer literal overflows",
                      t.loc.toString().c_str());
            }
            v = v * 10 + digit;
        }
        t.kind = Tok::Number;
        t.value = v;
        return t;
    }

    if (isClass(c, classWord)) {
        const size_t start = pos_ - 1;
        while (!atEnd() && isClass(peek(), classWord | classDigit))
            advance();
        const std::string_view word = src_.substr(start, pos_ - start);
        t.kind = keywordOf(word);
        if (t.kind == Tok::Ident)
            t.text = word;
        return t;
    }

    switch (c) {
      case ';': t.kind = Tok::Semi; return t;
      case ',': t.kind = Tok::Comma; return t;
      case '(': t.kind = Tok::LParen; return t;
      case ')': t.kind = Tok::RParen; return t;
      case '[': t.kind = Tok::LBracket; return t;
      case ']': t.kind = Tok::RBracket; return t;
      case '.': t.kind = Tok::Dot; return t;
      case '+': t.kind = Tok::Plus; return t;
      case '-': t.kind = Tok::Minus; return t;
      case '*': t.kind = Tok::Star; return t;
      case '/': t.kind = Tok::Slash; return t;
      case '%': t.kind = Tok::Percent; return t;
      case '=': t.kind = Tok::Eq; return t;
      case ':':
        if (peek() == '=') {
            advance();
            t.kind = Tok::Assign;
            return t;
        }
        fatal("%s: expected '=' after ':'", t.loc.toString().c_str());
      case '<':
        if (peek() == '=') {
            advance();
            t.kind = Tok::Le;
        } else if (peek() == '>') {
            advance();
            t.kind = Tok::Ne;
        } else {
            t.kind = Tok::Lt;
        }
        return t;
      case '>':
        if (peek() == '=') {
            advance();
            t.kind = Tok::Ge;
        } else {
            t.kind = Tok::Gt;
        }
        return t;
      default:
        fatal("%s: stray character '%c'", t.loc.toString().c_str(), c);
    }
}

} // namespace uhm::hlr
