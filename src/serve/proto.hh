/**
 * @file
 * The uhm_serve wire protocol.
 *
 * Line-delimited JSON over a unix-domain stream socket. Each request
 * is one JSON object on one line; each response is one header object
 * on one line, followed by `payload_lines` verbatim payload lines
 * (themselves JSON objects — the stream as a whole stays JSONL), so a
 * client can frame a response by reading exactly
 * 1 + header.payload_lines lines. Requests may be pipelined on one
 * connection; responses carry the request's `id` and are written in
 * completion order, each as one atomic block.
 *
 * Request grammar ("verb" is required, every other field optional):
 *
 *   {"verb": "ping" | "compile" | "encode" | "run" | "profile" |
 *            "sweep" | "stats" | "shutdown" | "metrics",
 *    "id": <uint>,                 // echoed in the response (default 0)
 *    "program": <sample name | "synthetic">,
 *    "source": <inline Contour source, overrides "program">,
 *    "seed": <uint>,               // "synthetic" generator seed (1978)
 *    "input": [<int>, ...],        // read-statement input
 *    "programs": [<name>, ...],    // sweep points (default: the corpus)
 *    "machine": "conventional"|"cached"|"dtb"|"dtb2"|"tiered",
 *    "encoding": "expanded"|"packed"|"contextual"|"huffman"|
 *                "pair-huffman"|"quantized",
 *    "dtb_bytes": <uint>, "assoc": <uint>,  // DTB and icache
 *    "tier_threshold": <uint>, "trace_cap": <uint>,
 *    "trace_bytes": <uint>,        // tiered machine only
 *    "sample_interval": <uint>,
 *    "disasm": <bool>,             // attach the disassembly
 *    "profile": <bool>,            // attach the profile payload
 *    "reset": <bool>,              // zero the counters after
 *    "format": "json"|"prometheus"} // metrics payload format
 *
 * Every verb reads "id" and "verb"; besides them each reads only
 *
 *   compile, encode   program source seed disasm + the eight settings
 *   run, profile      program source seed input profile + the settings
 *   sweep             programs seed + the settings (for every point)
 *   stats             reset
 *   metrics           format
 *
 * where the eight settings are machine through sample_interval
 * (uhm/settings.hh). Any other field is a bad_request, an unknown one
 * or one the verb does not read alike: a sweep sent an "input" must not
 * answer as if it had none. So is a buffer of more than maxBufferBytes
 * (1 MiB) or maxWays ways (1024; "assoc":0 puts every entry in one
 * set; mem/replacement.hh), refused before anything is allocated.
 *
 * The metrics verb returns the rolling-window + lifetime aggregates
 * (src/obs/window.hh) as one JSON line ("format":"json", the default)
 * or as a Prometheus text-exposition payload ("format":"prometheus").
 * The prometheus payload's lines are verbatim text, not JSON — the
 * one payload whose lines are not JSONL; framing is unaffected since
 * clients count lines, never parse them. Monitoring verbs (stats,
 * metrics) are excluded from the latency/queue ledger they report,
 * so a quiesced daemon answers concurrent metrics requests with
 * byte-identical payloads.
 *
 * Response header:
 *
 *   {"type":"response","id":N,"ok":true,"verb":...,
 *    "cached":true|false,          // run/profile: session-cache hit
 *    "payload_lines":K,            // verbatim lines that follow
 *    "output":[...],               // run/profile: WRITE values
 *    "cycles":N,"dir_instrs":N,    // run/profile summary
 *    "wait_us":N,"service_us":N}   // queue wait / execution time
 *
 * Error header (never followed by payload lines):
 *
 *   {"type":"response","id":N,"ok":false,
 *    "error":"bad_request"|"overloaded"|"shutting_down"|
 *            "internal_error",
 *    "message":"..."}
 *
 * bad_request covers malformed requests and guest faults the machine
 * reports (FatalError); internal_error is any other exception a
 * request raised. Its session is discarded, never reused, and the
 * daemon keeps serving.
 *
 * The profile payload of a run/profile response and the report payload
 * of a sweep response are byte-identical to what a cold `uhm_cli`
 * process emits for the same request (--profile= and sweep --out=
 * respectively) — CI diffs the two.
 */

#ifndef UHM_SERVE_PROTO_HH
#define UHM_SERVE_PROTO_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "uhm/settings.hh"

namespace uhm::serve
{

// ---------------------------------------------------------------------
// A minimal JSON value + parser (the writer side reuses JsonWriter).
// ---------------------------------------------------------------------

/** One parsed JSON value. */
struct JsonValue
{
    enum class Kind : uint8_t { Null, Bool, Int, Double, String, Array,
                                Object };
    Kind kind = Kind::Null;
    bool boolean = false;
    int64_t integer = 0;
    double number = 0.0;
    std::string string;
    std::vector<JsonValue> array;
    /** Insertion-ordered; duplicate keys are a parse error. */
    std::vector<std::pair<std::string, JsonValue>> object;

    bool isNull() const { return kind == Kind::Null; }
    bool isNumber() const
    {
        return kind == Kind::Int || kind == Kind::Double;
    }

    /** Object member by key; null when absent or not an object. */
    const JsonValue *find(const std::string &key) const;
};

/**
 * Parse one complete JSON document from @p text (trailing whitespace
 * allowed, trailing garbage is an error). @return false with a
 * diagnostic in @p err on malformed input.
 */
bool parseJson(const std::string &text, JsonValue &out,
               std::string &err);

/** The eight machine settings a request carries (uhm/settings.hh). */
using uhm::MachineSettings;

// ---------------------------------------------------------------------
// Requests.
// ---------------------------------------------------------------------

/** The request verbs. */
enum class Verb : uint8_t
{
    Ping,     ///< liveness check; header only
    Compile,  ///< resolve + compile; optional disassembly
    Encode,   ///< compile + encode; image size in the header
    Run,      ///< execute; profile payload when "profile":true
    Profile,  ///< run with the profile payload always attached
    Sweep,    ///< batch sweep; payload = the sweep JSONL report
    Stats,    ///< serve.* counters/histograms as a profile payload
    Shutdown, ///< acknowledge, then stop the server
    Metrics,  ///< rolling-window + lifetime aggregates (json/prometheus)
};

/** Printable verb name ("run"). */
const char *verbName(Verb verb);

/** Parse a verb name; @return false when unknown. */
bool parseVerb(const std::string &name, Verb &out);

/** One decoded request. */
struct Request
{
    uint64_t id = 0;
    Verb verb = Verb::Ping;
    /** Sample name or "synthetic"; empty = default ("qsort"). */
    std::string program = "qsort";
    /** Inline Contour source; overrides program when non-empty. */
    std::string source;
    uint64_t seed = 1978;
    std::vector<int64_t> input;
    /** True when the request carried an explicit "input". */
    bool inputGiven = false;
    MachineSettings machine;
    bool profile = false;
    bool disasm = false;
    bool resetStats = false;
    /** Sweep points; empty = the whole sample corpus + synthetic. */
    std::vector<std::string> programs;
    /** Metrics payload format ("json" or "prometheus"). */
    std::string format = "json";
};

/**
 * Decode one request line. @return false with a human-readable
 * diagnostic in @p err on malformed JSON, an unknown verb, an unknown
 * field, a field the verb does not read, a field of the wrong type, or
 * tier settings on a non-tiered machine.
 */
bool parseRequest(const std::string &line, Request &out,
                  std::string &err);

// ---------------------------------------------------------------------
// Response headers (writer side).
// ---------------------------------------------------------------------

/** The non-payload half of a success response. */
struct ResponseInfo
{
    uint64_t id = 0;
    Verb verb = Verb::Ping;
    /** run/profile: the session was warm. */
    bool cached = false;
    bool hasCached = false;
    /** run/profile summary. */
    std::vector<int64_t> output;
    bool hasRunSummary = false;
    uint64_t cycles = 0;
    uint64_t dirInstrs = 0;
    /** compile/encode summary. */
    bool hasProgramSummary = false;
    uint64_t instrs = 0;
    uint64_t programHash = 0;
    uint64_t imageBits = 0;
    /** compile: the disassembly (escaped into the header). */
    std::string disasm;
    /** Queueing observability. */
    uint64_t waitUs = 0;
    uint64_t serviceUs = 0;
};

/**
 * Render a success header line (no trailing newline) announcing
 * @p payload_lines verbatim lines to follow.
 */
std::string successHeader(const ResponseInfo &info,
                          size_t payload_lines);

/** Render an error header line (no trailing newline). */
std::string errorHeader(uint64_t id, const std::string &code,
                        const std::string &message);

} // namespace uhm::serve

#endif // UHM_SERVE_PROTO_HH
