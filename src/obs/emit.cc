#include "obs/emit.hh"

#include <memory>

#include "obs/timeline.hh"
#include "support/logging.hh"

namespace uhm::obs
{

namespace
{

/**
 * The one buffered sink the emitters write through: @p render streams
 * a document into the file at @p path, or into @p dash_stream for "-".
 * The file is opened before anything is rendered, so a bad path fails
 * fast, and a failed write is fatal too.
 */
void
writeFile(const std::string &path, std::FILE *dash_stream,
          const std::function<void(const TextSink &)> &render)
{
    auto sinkTo = [](std::FILE *out) {
        return [out](const std::string &text) {
            std::fwrite(text.data(), 1, text.size(), out);
        };
    };
    if (path == "-") {
        render(sinkTo(dash_stream));
        return;
    }
    std::unique_ptr<std::FILE, int (*)(std::FILE *)> file(
        std::fopen(path.c_str(), "w"), &std::fclose);
    if (!file)
        fatal("cannot open '%s'", path.c_str());
    render(sinkTo(file.get()));
    const bool failed = std::ferror(file.get()) != 0;
    if (std::fclose(file.release()) != 0 || failed)
        fatal("cannot write '%s'", path.c_str());
}

} // anonymous namespace

std::string
renderProfileJsonl(const ProfileData &profile)
{
    return toJsonl(profile);
}

void
writeTextTo(const std::string &text, const std::string &path,
            std::FILE *dash_stream)
{
    writeFile(path, dash_stream,
              [&](const TextSink &sink) { sink(text); });
}

void
emitProfileJsonl(const ProfileData &profile, const std::string &path,
                 std::FILE *dash_stream)
{
    writeFile(path, dash_stream,
              [&](const TextSink &sink) { writeJsonl(profile, sink); });
}

void
emitChromeTrace(const ProfileData &profile, const std::string &path)
{
    writeFile(path, stderr, [&](const TextSink &sink) {
        writeChromeTrace(profile, sink);
    });
    std::fprintf(stderr, "# timeline: %zu events -> %s\n",
                 profile.events.size(), path.c_str());
}

} // namespace uhm::obs
