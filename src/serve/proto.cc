#include "serve/proto.hh"

#include <cctype>
#include <cstdio>
#include <limits>

#include "support/flags.hh"
#include "support/json.hh"
#include "support/logging.hh"

namespace uhm::serve
{

namespace
{

// ---------------------------------------------------------------------
// JSON parsing.
// ---------------------------------------------------------------------

/** Recursive-descent parser over one in-memory document. */
class JsonParser
{
  public:
    JsonParser(const std::string &text, std::string &err)
        : text_(text), err_(err)
    {
    }

    bool
    parseDocument(JsonValue &out)
    {
        skipSpace();
        if (!parseValue(out, 0))
            return false;
        skipSpace();
        if (pos_ != text_.size())
            return fail("trailing characters after the JSON value");
        return true;
    }

  private:
    /** Deep nesting is an attack, not a request. */
    static constexpr int maxDepth = 32;

    bool
    fail(const std::string &what)
    {
        char buf[32];
        std::snprintf(buf, sizeof(buf), " at offset %zu", pos_);
        err_ = what + buf;
        return false;
    }

    void
    skipSpace()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    bool
    consume(char c)
    {
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool
    parseValue(JsonValue &out, int depth)
    {
        if (depth > maxDepth)
            return fail("nesting too deep");
        skipSpace();
        if (pos_ >= text_.size())
            return fail("unexpected end of input");
        char c = text_[pos_];
        if (c == '{')
            return parseObject(out, depth);
        if (c == '[')
            return parseArray(out, depth);
        if (c == '"') {
            out.kind = JsonValue::Kind::String;
            return parseString(out.string);
        }
        if (c == 't' || c == 'f')
            return parseBool(out);
        if (c == 'n') {
            if (text_.compare(pos_, 4, "null") != 0)
                return fail("bad literal");
            pos_ += 4;
            out.kind = JsonValue::Kind::Null;
            return true;
        }
        return parseNumber(out);
    }

    bool
    parseBool(JsonValue &out)
    {
        out.kind = JsonValue::Kind::Bool;
        if (text_.compare(pos_, 4, "true") == 0) {
            out.boolean = true;
            pos_ += 4;
            return true;
        }
        if (text_.compare(pos_, 5, "false") == 0) {
            out.boolean = false;
            pos_ += 5;
            return true;
        }
        return fail("bad literal");
    }

    bool
    parseNumber(JsonValue &out)
    {
        size_t start = pos_;
        if (consume('-')) {
        }
        while (pos_ < text_.size() && std::isdigit(
                   static_cast<unsigned char>(text_[pos_])))
            ++pos_;
        bool integral = true;
        if (pos_ < text_.size() &&
            (text_[pos_] == '.' || text_[pos_] == 'e' ||
             text_[pos_] == 'E')) {
            integral = false;
            while (pos_ < text_.size() &&
                   (std::isdigit(
                        static_cast<unsigned char>(text_[pos_])) ||
                    text_[pos_] == '.' || text_[pos_] == 'e' ||
                    text_[pos_] == 'E' || text_[pos_] == '+' ||
                    text_[pos_] == '-'))
                ++pos_;
        }
        if (pos_ == start || (text_[start] == '-' && pos_ == start + 1))
            return fail("bad number");
        std::string token = text_.substr(start, pos_ - start);
        try {
            if (integral) {
                out.kind = JsonValue::Kind::Int;
                out.integer = std::stoll(token);
                out.number = static_cast<double>(out.integer);
            } else {
                out.kind = JsonValue::Kind::Double;
                out.number = std::stod(token);
                out.integer = static_cast<int64_t>(out.number);
            }
        } catch (const std::exception &) {
            return fail("number out of range");
        }
        return true;
    }

    bool
    parseString(std::string &out)
    {
        ++pos_; // opening quote
        out.clear();
        while (pos_ < text_.size()) {
            char c = text_[pos_++];
            if (c == '"')
                return true;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                break;
            char e = text_[pos_++];
            switch (e) {
              case '"':  out += '"';  break;
              case '\\': out += '\\'; break;
              case '/':  out += '/';  break;
              case 'b':  out += '\b'; break;
              case 'f':  out += '\f'; break;
              case 'n':  out += '\n'; break;
              case 'r':  out += '\r'; break;
              case 't':  out += '\t'; break;
              case 'u': {
                if (pos_ + 4 > text_.size())
                    return fail("truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = text_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        return fail("bad \\u escape");
                }
                // UTF-8 encode the BMP code point (surrogate pairs
                // are not reassembled — requests are ASCII in
                // practice and the bytes round-trip).
                if (code < 0x80) {
                    out += static_cast<char>(code);
                } else if (code < 0x800) {
                    out += static_cast<char>(0xC0 | (code >> 6));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                } else {
                    out += static_cast<char>(0xE0 | (code >> 12));
                    out += static_cast<char>(0x80 |
                                             ((code >> 6) & 0x3F));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                }
                break;
              }
              default:
                return fail("bad escape");
            }
        }
        return fail("unterminated string");
    }

    bool
    parseArray(JsonValue &out, int depth)
    {
        ++pos_; // '['
        out.kind = JsonValue::Kind::Array;
        skipSpace();
        if (consume(']'))
            return true;
        while (true) {
            JsonValue element;
            if (!parseValue(element, depth + 1))
                return false;
            out.array.push_back(std::move(element));
            skipSpace();
            if (consume(']'))
                return true;
            if (!consume(','))
                return fail("expected ',' or ']'");
        }
    }

    bool
    parseObject(JsonValue &out, int depth)
    {
        ++pos_; // '{'
        out.kind = JsonValue::Kind::Object;
        skipSpace();
        if (consume('}'))
            return true;
        while (true) {
            skipSpace();
            if (pos_ >= text_.size() || text_[pos_] != '"')
                return fail("expected a string key");
            std::string key;
            if (!parseString(key))
                return false;
            for (const auto &kv : out.object) {
                if (kv.first == key)
                    return fail("duplicate key '" + key + "'");
            }
            skipSpace();
            if (!consume(':'))
                return fail("expected ':'");
            JsonValue value;
            if (!parseValue(value, depth + 1))
                return false;
            out.object.emplace_back(std::move(key), std::move(value));
            skipSpace();
            if (consume('}'))
                return true;
            if (!consume(','))
                return fail("expected ',' or '}'");
        }
    }

    const std::string &text_;
    std::string &err_;
    size_t pos_ = 0;
};

// ---------------------------------------------------------------------
// Request fields: the verbs that read each one, and how it is read.
// ---------------------------------------------------------------------

constexpr Verb allVerbs[] = {
    Verb::Ping,    Verb::Compile, Verb::Encode,   Verb::Run,
    Verb::Profile, Verb::Sweep,   Verb::Stats,    Verb::Shutdown,
    Verb::Metrics,
};

/** @p verb's bit in a set of verbs. */
constexpr uint32_t
verbBit(Verb verb)
{
    return uint32_t{1} << static_cast<unsigned>(verb);
}

constexpr uint32_t anyVerb = (verbBit(Verb::Metrics) << 1) - 1;
constexpr uint32_t runVerbs = verbBit(Verb::Run) | verbBit(Verb::Profile);
constexpr uint32_t programVerbs =
    verbBit(Verb::Compile) | verbBit(Verb::Encode) | runVerbs;
constexpr uint32_t settingsVerbs = programVerbs | verbBit(Verb::Sweep);

// Each reader stores a field's value and returns "", or returns what is
// wrong with the value.

std::string
readString(const JsonValue &v, std::string &into)
{
    if (v.kind != JsonValue::Kind::String)
        return "must be a string";
    into = v.string;
    return "";
}

/** A value too wide for @p into must not wrap: assoc 2^32 would mean
 *  "fully associative". */
template <typename T>
std::string
readUint(const JsonValue &v, T &into)
{
    if (v.kind != JsonValue::Kind::Int || v.integer < 0)
        return "must be a non-negative integer";
    if (static_cast<uint64_t>(v.integer) > std::numeric_limits<T>::max())
        return "must be at most " +
            std::to_string(std::numeric_limits<T>::max());
    into = static_cast<T>(v.integer);
    return "";
}

std::string
readBool(const JsonValue &v, bool &into)
{
    if (v.kind != JsonValue::Kind::Bool)
        return "must be a boolean";
    into = v.boolean;
    return "";
}

/** A string that @p parse maps to one of @p what. */
template <typename T>
std::string
readName(const JsonValue &v, bool (*parse)(const std::string &, T &),
         const char *what, T &into)
{
    if (v.kind == JsonValue::Kind::String && parse(v.string, into))
        return "";
    return std::string("must name ") + what +
        (v.kind == JsonValue::Kind::String ? ", not '" + v.string + "'"
                                            : "");
}

bool
parseFormat(const std::string &name, std::string &into)
{
    into = name;
    return name == "json" || name == "prometheus";
}

/** An array of @p kind elements, each read as its @p member. */
template <typename T>
std::string
readArray(const JsonValue &v, JsonValue::Kind kind, T JsonValue::*member,
          const char *what, std::vector<T> &into)
{
    into.clear();
    for (const JsonValue &element : v.array) {
        if (element.kind != kind)
            break;
        into.push_back(element.*member);
    }
    if (v.kind == JsonValue::Kind::Array && into.size() == v.array.size())
        return "";
    return std::string("must be an array of ") + what;
}

/**
 * One request field: the verbs that read it, exactly as the server's
 * handlers do (server.cc), and its reader. A field the verb does not
 * read is a bad_request.
 */
struct Field
{
    const char *name;
    uint32_t verbs;
    std::string (*read)(const JsonValue &v, Request &r);
    /** Tier-only machine setting (checkTierOnly). */
    bool tierOnly = false;
};

const Field fields[] = {
    {"id", anyVerb, [](auto &v, auto &r) { return readUint(v, r.id); }},
    {"verb", anyVerb,
     [](auto &v, auto &r) {
         return readName(v, parseVerb, "a verb", r.verb);
     }},
    {"program", programVerbs,
     [](auto &v, auto &r) { return readString(v, r.program); }},
    {"source", programVerbs,
     [](auto &v, auto &r) { return readString(v, r.source); }},
    {"seed", settingsVerbs,
     [](auto &v, auto &r) { return readUint(v, r.seed); }},
    {"input", runVerbs,
     [](auto &v, auto &r) {
         r.inputGiven = true;
         return readArray(v, JsonValue::Kind::Int, &JsonValue::integer,
                          "integers", r.input);
     }},
    {"programs", verbBit(Verb::Sweep),
     [](auto &v, auto &r) {
         return readArray(v, JsonValue::Kind::String, &JsonValue::string,
                          "names", r.programs);
     }},
    {"machine", settingsVerbs,
     [](auto &v, auto &r) {
         return readName(v, parseMachineKind, "a machine kind",
                         r.machine.kind);
     }},
    {"encoding", settingsVerbs,
     [](auto &v, auto &r) {
         return readName(v, parseEncodingScheme, "an encoding",
                         r.machine.scheme);
     }},
    {"dtb_bytes", settingsVerbs,
     [](auto &v, auto &r) { return readUint(v, r.machine.dtbBytes); }},
    {"assoc", settingsVerbs,
     [](auto &v, auto &r) { return readUint(v, r.machine.assoc); }},
    {"tier_threshold", settingsVerbs,
     [](auto &v, auto &r) { return readUint(v, r.machine.tierThreshold); },
     true},
    {"trace_cap", settingsVerbs,
     [](auto &v, auto &r) { return readUint(v, r.machine.traceCap); },
     true},
    {"trace_bytes", settingsVerbs,
     [](auto &v, auto &r) { return readUint(v, r.machine.traceBytes); },
     true},
    {"sample_interval", settingsVerbs,
     [](auto &v, auto &r) {
         return readUint(v, r.machine.sampleInterval);
     }},
    {"disasm", verbBit(Verb::Compile) | verbBit(Verb::Encode),
     [](auto &v, auto &r) { return readBool(v, r.disasm); }},
    {"profile", runVerbs,
     [](auto &v, auto &r) { return readBool(v, r.profile); }},
    {"reset", verbBit(Verb::Stats),
     [](auto &v, auto &r) { return readBool(v, r.resetStats); }},
    {"format", verbBit(Verb::Metrics),
     [](auto &v, auto &r) {
         return readName(v, parseFormat, "\"json\" or \"prometheus\"",
                         r.format);
     }},
};

const Field *
findField(const std::string &name)
{
    for (const Field &field : fields) {
        if (name == field.name)
            return &field;
    }
    return nullptr;
}

/** The verbs in @p verbs, by name: "run, profile". */
std::string
verbNames(uint32_t verbs)
{
    std::string names;
    for (Verb verb : allVerbs) {
        if ((verbs & verbBit(verb)) != 0)
            names += (names.empty() ? "" : ", ") + std::string(verbName(verb));
    }
    return names;
}

} // anonymous namespace

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (kind != Kind::Object)
        return nullptr;
    for (const auto &kv : object) {
        if (kv.first == key)
            return &kv.second;
    }
    return nullptr;
}

bool
parseJson(const std::string &text, JsonValue &out, std::string &err)
{
    out = JsonValue{};
    JsonParser parser(text, err);
    return parser.parseDocument(out);
}

const char *
verbName(Verb verb)
{
    switch (verb) {
      case Verb::Ping:     return "ping";
      case Verb::Compile:  return "compile";
      case Verb::Encode:   return "encode";
      case Verb::Run:      return "run";
      case Verb::Profile:  return "profile";
      case Verb::Sweep:    return "sweep";
      case Verb::Stats:    return "stats";
      case Verb::Shutdown: return "shutdown";
      case Verb::Metrics:  return "metrics";
    }
    return "?";
}

bool
parseVerb(const std::string &name, Verb &out)
{
    return parseByName(name, allVerbs, verbName, out);
}

bool
parseRequest(const std::string &line, Request &out, std::string &err)
{
    out = Request{};
    JsonValue doc;
    if (!parseJson(line, doc, err))
        return false;
    if (doc.kind != JsonValue::Kind::Object) {
        err = "request must be a JSON object";
        return false;
    }
    std::string tier_field;
    for (const auto &[key, value] : doc.object) {
        const Field *field = findField(key);
        if (field == nullptr) {
            err = "unknown field '" + key + "'";
            return false;
        }
        const std::string bad = field->read(value, out);
        if (!bad.empty()) {
            err = "'" + key + "' " + bad;
            return false;
        }
        if (field->tierOnly)
            tier_field = key;
    }
    if (doc.find("verb") == nullptr) {
        err = "missing 'verb'";
        return false;
    }
    for (const auto &kv : doc.object) {
        const Field *field = findField(kv.first);
        if ((field->verbs & verbBit(out.verb)) == 0) {
            err = "'" + kv.first + "' is not read by verb " +
                verbName(out.verb) + " (only by " +
                verbNames(field->verbs) + ")";
            return false;
        }
    }
    try {
        checkTierOnly(out.machine, tier_field);
    } catch (const FatalError &e) {
        err = e.what();
        return false;
    }
    if (out.verb == Verb::Profile)
        out.profile = true;
    return true;
}

std::string
successHeader(const ResponseInfo &info, size_t payload_lines)
{
    JsonWriter jw;
    jw.beginObject();
    jw.key("type").value("response");
    jw.key("id").value(info.id);
    jw.key("ok").value(true);
    jw.key("verb").value(verbName(info.verb));
    if (info.hasCached)
        jw.key("cached").value(info.cached);
    jw.key("payload_lines").value(
        static_cast<uint64_t>(payload_lines));
    if (info.hasRunSummary) {
        jw.key("output").beginArray();
        for (int64_t v : info.output)
            jw.value(v);
        jw.endArray();
        jw.key("cycles").value(info.cycles);
        jw.key("dir_instrs").value(info.dirInstrs);
    }
    if (info.hasProgramSummary) {
        jw.key("instrs").value(info.instrs);
        // Hex string: a raw 64-bit hash can exceed what JSON integers
        // (and this protocol's int64 parser) can carry.
        char hash[24];
        std::snprintf(hash, sizeof(hash), "%016llx",
                      static_cast<unsigned long long>(
                          info.programHash));
        jw.key("program_hash").value(hash);
        if (info.imageBits != 0)
            jw.key("image_bits").value(info.imageBits);
        if (!info.disasm.empty())
            jw.key("disasm").value(info.disasm);
    }
    jw.key("wait_us").value(info.waitUs);
    jw.key("service_us").value(info.serviceUs);
    jw.endObject();
    return jw.str();
}

std::string
errorHeader(uint64_t id, const std::string &code,
            const std::string &message)
{
    JsonWriter jw;
    jw.beginObject();
    jw.key("type").value("response");
    jw.key("id").value(id);
    jw.key("ok").value(false);
    jw.key("error").value(code);
    jw.key("message").value(message);
    jw.endObject();
    return jw.str();
}

} // namespace uhm::serve
