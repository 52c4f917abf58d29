#include "data/trace_io.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <vector>

#include "common/logging.h"

namespace frugal {

namespace {

constexpr std::uint64_t kMagic = 0x4652554741'545243ULL;  // "FRUGAL TRC"
constexpr std::uint32_t kVersion = 1;

struct Header
{
    std::uint64_t magic = kMagic;
    std::uint32_t version = kVersion;
    std::uint32_t n_gpus = 0;
    std::uint64_t key_space = 0;
    std::uint64_t steps = 0;
};

class Fnv
{
  public:
    void
    Mix(const void *data, std::size_t bytes)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < bytes; ++i) {
            hash_ ^= p[i];
            hash_ *= 0x100000001b3ULL;
        }
    }

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

}  // namespace

void
SaveTrace(const Trace &trace, const std::string &path)
{
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out.good())
            FRUGAL_FATAL("cannot open trace file " << tmp);
        Header header;
        header.n_gpus = trace.n_gpus();
        header.key_space = trace.key_space();
        header.steps = trace.NumSteps();
        out.write(reinterpret_cast<const char *>(&header),
                  sizeof(header));
        Fnv fnv;
        for (std::size_t s = 0; s < trace.NumSteps(); ++s) {
            for (GpuId g = 0; g < trace.n_gpus(); ++g) {
                const std::vector<Key> &keys = trace.KeysFor(s, g);
                const auto count =
                    static_cast<std::uint32_t>(keys.size());
                out.write(reinterpret_cast<const char *>(&count),
                          sizeof(count));
                out.write(reinterpret_cast<const char *>(keys.data()),
                          static_cast<std::streamsize>(keys.size() *
                                                       sizeof(Key)));
                fnv.Mix(&count, sizeof(count));
                fnv.Mix(keys.data(), keys.size() * sizeof(Key));
            }
        }
        const std::uint64_t checksum = fnv.value();
        out.write(reinterpret_cast<const char *>(&checksum),
                  sizeof(checksum));
        if (!out.good())
            FRUGAL_FATAL("short write to trace file " << tmp);
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
        FRUGAL_FATAL("cannot rename " << tmp << " to " << path);
}

std::optional<Trace>
LoadTrace(const std::string &path)
{
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in.good())
        return std::nullopt;
    const std::streamoff file_bytes = in.tellg();
    in.seekg(0);
    Header header;
    in.read(reinterpret_cast<char *>(&header), sizeof(header));
    if (!in.good() || header.magic != kMagic ||
        header.version != kVersion || header.n_gpus == 0) {
        return std::nullopt;
    }
    // Every length field is bounded by the bytes the file has left
    // before anything is allocated (divisions, so no product overflows):
    // a corrupt header must not drive a multi-GB allocation. `left`
    // counts the bytes between the header and the trailing checksum.
    constexpr std::streamoff kFraming =
        sizeof(Header) + sizeof(std::uint64_t);
    if (file_bytes < kFraming)
        return std::nullopt;
    auto left = static_cast<std::uint64_t>(file_bytes - kFraming);
    if (header.steps > left / sizeof(std::uint32_t) / header.n_gpus)
        return std::nullopt;
    Fnv fnv;
    std::vector<StepKeys> steps(header.steps);
    std::vector<Key> sorted;
    for (auto &step : steps) {
        step.per_gpu.resize(header.n_gpus);
        for (auto &keys : step.per_gpu) {
            std::uint32_t count = 0;
            if (left < sizeof(count))
                return std::nullopt;
            in.read(reinterpret_cast<char *>(&count), sizeof(count));
            left -= sizeof(count);
            if (!in.good() || count > left / sizeof(Key))
                return std::nullopt;
            left -= count * sizeof(Key);
            keys.resize(count);
            in.read(reinterpret_cast<char *>(keys.data()),
                    static_cast<std::streamsize>(count * sizeof(Key)));
            if (!in.good())
                return std::nullopt;
            fnv.Mix(&count, sizeof(count));
            fnv.Mix(keys.data(), keys.size() * sizeof(Key));
            // Keys index the table and are unique per (step, GPU) list
            // (data/trace.h): registration order and the oracle rely on
            // both.
            sorted.assign(keys.begin(), keys.end());
            std::sort(sorted.begin(), sorted.end());
            if ((!sorted.empty() && sorted.back() >= header.key_space) ||
                std::adjacent_find(sorted.begin(), sorted.end()) !=
                    sorted.end()) {
                return std::nullopt;
            }
        }
    }
    std::uint64_t stored = 0;
    in.read(reinterpret_cast<char *>(&stored), sizeof(stored));
    if (!in.good() || stored != fnv.value())
        return std::nullopt;
    return Trace(std::move(steps), header.key_space, header.n_gpus);
}

}  // namespace frugal
