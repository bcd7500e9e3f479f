/**
 * @file
 * A minimal JSON writer.
 *
 * Emits experiment results in machine-readable form (bench_export) so
 * downstream tooling can consume the reproduction's numbers without
 * scraping text tables. Writer-only by design — nothing in the system
 * consumes JSON.
 */

#ifndef UHM_SUPPORT_JSON_HH
#define UHM_SUPPORT_JSON_HH

#include <cstdint>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

namespace uhm
{

/** Receives a document's text piece by piece (a file, a socket). */
using TextSink = std::function<void(const std::string &)>;

/** Text a streaming writer gathers before handing it to its sink. */
inline constexpr size_t sinkChunkBytes = size_t{64} << 10;

/**
 * Streaming JSON writer with explicit begin/end nesting.
 *
 * Usage:
 * @code
 *   JsonWriter jw;
 *   jw.beginObject();
 *   jw.key("name").value("sieve");
 *   jw.key("sizes").beginArray().value(1).value(2).endArray();
 *   jw.endObject();
 *   std::string doc = jw.str();
 * @endcode
 */
class JsonWriter
{
  public:
    JsonWriter() = default;

    /**
     * A streaming writer: whenever an object closes with at least
     * sinkChunkBytes gathered, the text so far goes to @p sink, so a
     * long document never sits whole in memory. flush() hands on the
     * rest; str() holds only what has not been handed on.
     */
    explicit JsonWriter(TextSink sink) : sink_(std::move(sink)) {}

    JsonWriter &
    beginObject()
    {
        separate();
        os_ << "{";
        stack_.push_back(State::FirstInObject);
        return *this;
    }

    JsonWriter &
    endObject()
    {
        stack_.pop_back();
        os_ << "}";
        if (sink_ && os_.tellp() >= std::streamoff{sinkChunkBytes})
            flush();
        return *this;
    }

    JsonWriter &
    beginArray()
    {
        separate();
        os_ << "[";
        stack_.push_back(State::FirstInArray);
        return *this;
    }

    JsonWriter &
    endArray()
    {
        stack_.pop_back();
        os_ << "]";
        return *this;
    }

    /** Emit an object key; must be followed by a value. */
    JsonWriter &
    key(const std::string &name)
    {
        separate();
        emitString(name);
        os_ << ":";
        pendingValue_ = true;
        return *this;
    }

    JsonWriter &
    value(const std::string &v)
    {
        separate();
        emitString(v);
        return *this;
    }

    JsonWriter &
    value(const char *v)
    {
        return value(std::string(v));
    }

    JsonWriter &
    value(double v)
    {
        separate();
        std::ostringstream tmp;
        tmp.precision(12);
        tmp << v;
        os_ << tmp.str();
        return *this;
    }

    JsonWriter &
    value(uint64_t v)
    {
        separate();
        os_ << v;
        return *this;
    }

    JsonWriter &
    value(int64_t v)
    {
        separate();
        os_ << v;
        return *this;
    }

    JsonWriter &
    value(int v)
    {
        return value(static_cast<int64_t>(v));
    }

    JsonWriter &
    value(bool v)
    {
        separate();
        os_ << (v ? "true" : "false");
        return *this;
    }

    /** The finished document. */
    std::string str() const { return os_.str(); }

    /** Hand the gathered text to the sink (streaming writers only). */
    void
    flush()
    {
        sink_(os_.str());
        os_.str("");
    }

  private:
    enum class State : uint8_t { FirstInObject, InObject, FirstInArray,
                                 InArray };

    void
    separate()
    {
        if (pendingValue_) {
            pendingValue_ = false;
            return; // value directly after key: no comma
        }
        if (stack_.empty())
            return;
        State &s = stack_.back();
        if (s == State::InObject || s == State::InArray) {
            os_ << ",";
        } else {
            s = s == State::FirstInObject ? State::InObject :
                State::InArray;
        }
    }

    void
    emitString(const std::string &s)
    {
        os_ << '"';
        for (char c : s) {
            switch (c) {
              case '"':  os_ << "\\\""; break;
              case '\\': os_ << "\\\\"; break;
              case '\n': os_ << "\\n"; break;
              case '\t': os_ << "\\t"; break;
              case '\r': os_ << "\\r"; break;
              default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                    os_ << buf;
                } else {
                    os_ << c;
                }
            }
        }
        os_ << '"';
    }

    std::ostringstream os_;
    TextSink sink_;
    std::vector<State> stack_;
    bool pendingValue_ = false;
};

} // namespace uhm

#endif // UHM_SUPPORT_JSON_HH
