#include "serve/proto.hh"

#include <cctype>
#include <cstdio>

#include "support/json.hh"

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
// Request-field helpers.
// ---------------------------------------------------------------------

bool
parseMachineKind(const std::string &name, MachineKind &out)
{
    static constexpr MachineKind kinds[] = {
        MachineKind::Conventional, MachineKind::Cached,
        MachineKind::Dtb,          MachineKind::Dtb2,
        MachineKind::Tiered,
    };
    for (MachineKind kind : kinds) {
        if (name == machineKindName(kind)) {
            out = kind;
            return true;
        }
    }
    return false;
}

bool
parseEncodingScheme(const std::string &name, EncodingScheme &out)
{
    for (EncodingScheme scheme : allEncodingSchemes()) {
        if (name == encodingName(scheme)) {
            out = scheme;
            return true;
        }
    }
    return false;
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

MachineConfig
MachineSettings::toConfig() const
{
    MachineConfig cfg;
    cfg.kind = kind;
    cfg.dtb.capacityBytes = dtbBytes;
    cfg.dtb.assoc = assoc;
    cfg.icache.capacityBytes = dtbBytes;
    cfg.icache.assoc = assoc;
    cfg.tier.hotThreshold = tierThreshold;
    cfg.tier.traceCap = traceCap;
    cfg.traceCache.capacityBytes = traceBytes;
    cfg.sampleIntervalCycles = sampleInterval;
    return cfg;
}

std::string
MachineSettings::fingerprint() const
{
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "m=%s;e=%s;dtb=%llu;assoc=%u;tt=%u;tc=%zu;"
                  "tb=%llu;si=%llu",
                  machineKindName(kind), encodingName(scheme),
                  static_cast<unsigned long long>(dtbBytes), assoc,
                  tierThreshold, traceCap,
                  static_cast<unsigned long long>(traceBytes),
                  static_cast<unsigned long long>(sampleInterval));
    return buf;
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
    static constexpr Verb verbs[] = {
        Verb::Ping, Verb::Compile, Verb::Encode,   Verb::Run,
        Verb::Profile, Verb::Sweep, Verb::Stats, Verb::Shutdown,
        Verb::Metrics,
    };
    for (Verb verb : verbs) {
        if (name == verbName(verb)) {
            out = verb;
            return true;
        }
    }
    return false;
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

    auto wantString = [&err](const JsonValue &v, const char *field,
                             std::string &into) {
        if (v.kind != JsonValue::Kind::String) {
            err = std::string("'") + field + "' must be a string";
            return false;
        }
        into = v.string;
        return true;
    };
    auto wantUint = [&err](const JsonValue &v, const char *field,
                           uint64_t &into) {
        if (v.kind != JsonValue::Kind::Int || v.integer < 0) {
            err = std::string("'") + field +
                "' must be a non-negative integer";
            return false;
        }
        into = static_cast<uint64_t>(v.integer);
        return true;
    };
    // For fields narrower than the wire integer: a value that does not
    // fit must not silently wrap (assoc 2^32 would mean "fully
    // associative").
    auto wantUint32 = [&](const JsonValue &v, const char *field,
                          uint64_t &into) {
        if (!wantUint(v, field, into))
            return false;
        if (into > UINT32_MAX) {
            err = std::string("'") + field + "' must be at most " +
                std::to_string(UINT32_MAX);
            return false;
        }
        return true;
    };
    auto wantBool = [&err](const JsonValue &v, const char *field,
                           bool &into) {
        if (v.kind != JsonValue::Kind::Bool) {
            err = std::string("'") + field + "' must be a boolean";
            return false;
        }
        into = v.boolean;
        return true;
    };

    bool sawVerb = false;
    for (const auto &kv : doc.object) {
        const std::string &key = kv.first;
        const JsonValue &v = kv.second;
        if (key == "id") {
            if (!wantUint(v, "id", out.id))
                return false;
        } else if (key == "verb") {
            std::string name;
            if (!wantString(v, "verb", name))
                return false;
            if (!parseVerb(name, out.verb)) {
                err = "unknown verb '" + name + "'";
                return false;
            }
            sawVerb = true;
        } else if (key == "program") {
            if (!wantString(v, "program", out.program))
                return false;
        } else if (key == "source") {
            if (!wantString(v, "source", out.source))
                return false;
        } else if (key == "seed") {
            if (!wantUint(v, "seed", out.seed))
                return false;
        } else if (key == "input") {
            if (v.kind != JsonValue::Kind::Array) {
                err = "'input' must be an array of integers";
                return false;
            }
            out.input.clear();
            for (const JsonValue &element : v.array) {
                if (element.kind != JsonValue::Kind::Int) {
                    err = "'input' must be an array of integers";
                    return false;
                }
                out.input.push_back(element.integer);
            }
            out.inputGiven = true;
        } else if (key == "machine") {
            std::string name;
            if (!wantString(v, "machine", name))
                return false;
            if (!parseMachineKind(name, out.machine.kind)) {
                err = "unknown machine kind '" + name + "'";
                return false;
            }
        } else if (key == "encoding") {
            std::string name;
            if (!wantString(v, "encoding", name))
                return false;
            if (!parseEncodingScheme(name, out.machine.scheme)) {
                err = "unknown encoding '" + name + "'";
                return false;
            }
        } else if (key == "dtb_bytes") {
            if (!wantUint(v, "dtb_bytes", out.machine.dtbBytes))
                return false;
        } else if (key == "assoc") {
            uint64_t n = 0;
            if (!wantUint32(v, "assoc", n))
                return false;
            out.machine.assoc = static_cast<unsigned>(n);
        } else if (key == "tier_threshold") {
            uint64_t n = 0;
            if (!wantUint32(v, "tier_threshold", n))
                return false;
            out.machine.tierThreshold = static_cast<uint32_t>(n);
            out.tierFieldSeen = "tier_threshold";
        } else if (key == "trace_cap") {
            uint64_t n = 0;
            if (!wantUint(v, "trace_cap", n))
                return false;
            out.machine.traceCap = n;
            out.tierFieldSeen = "trace_cap";
        } else if (key == "trace_bytes") {
            if (!wantUint(v, "trace_bytes", out.machine.traceBytes))
                return false;
            out.tierFieldSeen = "trace_bytes";
        } else if (key == "sample_interval") {
            if (!wantUint(v, "sample_interval",
                          out.machine.sampleInterval))
                return false;
        } else if (key == "profile") {
            if (!wantBool(v, "profile", out.profile))
                return false;
        } else if (key == "disasm") {
            if (!wantBool(v, "disasm", out.disasm))
                return false;
        } else if (key == "reset") {
            if (!wantBool(v, "reset", out.resetStats))
                return false;
        } else if (key == "format") {
            if (!wantString(v, "format", out.format))
                return false;
            if (out.format != "json" && out.format != "prometheus") {
                err = "'format' must be \"json\" or \"prometheus\" "
                      "(got '" + out.format + "')";
                return false;
            }
            out.formatGiven = true;
        } else if (key == "programs") {
            if (v.kind != JsonValue::Kind::Array) {
                err = "'programs' must be an array of names";
                return false;
            }
            out.programs.clear();
            for (const JsonValue &element : v.array) {
                if (element.kind != JsonValue::Kind::String) {
                    err = "'programs' must be an array of names";
                    return false;
                }
                out.programs.push_back(element.string);
            }
        } else {
            err = "unknown field '" + key + "'";
            return false;
        }
    }
    if (!sawVerb) {
        err = "missing 'verb'";
        return false;
    }
    // Tier fields on a non-tiered machine are an error, not a no-op —
    // exactly the uhm_cli contract for the corresponding flags.
    if (!out.tierFieldSeen.empty() &&
        out.machine.kind != MachineKind::Tiered) {
        err = "'" + out.tierFieldSeen +
            "' only applies to \"machine\":\"tiered\" (got '" +
            machineKindName(out.machine.kind) + "')";
        return false;
    }
    // A payload format on a verb that has no formattable payload is a
    // typo'd request, not a preference — same contract as tier fields.
    if (out.formatGiven && out.verb != Verb::Metrics) {
        err = "'format' only applies to \"verb\":\"metrics\" (got '" +
            std::string(verbName(out.verb)) + "')";
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
