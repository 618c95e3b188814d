// Measurement hygiene for the end-to-end benchmark: process I/O and memory
// counters from /proc/self, cold page cache over a repository, and the
// facts of the machine a result was measured on.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>

namespace e2e {

// Bytes the process passed to read/write syscalls (/proc/self/io rchar and
// wchar), page cache hits included.
struct IoCounters {
  std::uint64_t rchar = 0;
  std::uint64_t wchar = 0;
};
[[nodiscard]] IoCounters read_io_counters();

// Per-command memory growth: begin() returns free heap to the system,
// resets the peak (clear_refs "5") and reads the resident size;
// growth_bytes() is the peak since then minus that resident size, so memory
// already held before the command is excluded.
class RssProbe {
 public:
  void begin();
  [[nodiscard]] std::uint64_t growth_bytes() const;

 private:
  std::uint64_t rss_before_ = 0;
};

// Drops every file under `dir` from the page cache (fsync'd files only keep
// no dirty pages, which is every file the repository commits).
void drop_page_cache(const std::filesystem::path& dir);

// Total size of the regular files under `dir`; only of those named `name`
// when it is not empty.
[[nodiscard]] std::uint64_t tree_bytes(const std::filesystem::path& dir,
                                       const std::string& name = {});

// Filesystem type of `dir` ("ext4", "xfs", "tmpfs", ... or hex magic).
[[nodiscard]] std::string filesystem_type(const std::filesystem::path& dir);

// Cumulative CPU time of the machine (/proc/stat "cpu" line, in ticks):
// all of it, and the part the hypervisor gave to other guests (steal).
struct CpuTicks {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
[[nodiscard]] CpuTicks read_cpu_ticks();

// Monotonic time in milliseconds.
[[nodiscard]] double now_ms();

}  // namespace e2e
