/**
 * @file
 * Report emission: one place that turns a ProfileData into bytes on a
 * sink.
 *
 * uhm_cli's --profile/--timeline flags, the uhm_serve daemon's
 * response payloads and its shutdown timeline all emit the same two
 * documents — the JSONL profile report (obs::toJsonl) and the Chrome
 * trace timeline (obs::toChromeTrace). The file emitters stream both
 * through one buffered file sink in bounded chunks, so a timeline of
 * a million events never sits whole in memory, and implement the
 * file-or-stream convention ("-" = the caller's fallback stream,
 * anything else = a file, fatal on open failure) once.
 */

#ifndef UHM_OBS_EMIT_HH
#define UHM_OBS_EMIT_HH

#include <cstdio>
#include <string>

#include "obs/report.hh"

namespace uhm::obs
{

/**
 * The JSONL profile report for @p profile — the exact bytes
 * `uhm_cli --profile` writes and a `uhm_serve` profile response
 * carries as its payload. A thin, named alias of toJsonl() so callers
 * that must stay byte-identical share one entry point.
 */
std::string renderProfileJsonl(const ProfileData &profile);

/**
 * Write @p text to @p path; a path of "-" means @p dash_stream
 * instead. Fatal (exit-1 FatalError) when the file cannot be opened.
 */
void writeTextTo(const std::string &text, const std::string &path,
                 std::FILE *dash_stream);

/** renderProfileJsonl(@p profile), streamed as writeTextTo would. */
void emitProfileJsonl(const ProfileData &profile,
                      const std::string &path,
                      std::FILE *dash_stream = stderr);

/**
 * toChromeTrace(@p profile), streamed to @p path ("-" = stderr), then
 * the "# timeline: N events -> path" status note on stderr (the note
 * is part of the CLI contract too).
 */
void emitChromeTrace(const ProfileData &profile,
                     const std::string &path);

} // namespace uhm::obs

#endif // UHM_OBS_EMIT_HH
