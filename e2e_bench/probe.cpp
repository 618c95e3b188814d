#include "probe.h"

#include <fcntl.h>
#include <malloc.h>
#include <sys/vfs.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>

namespace e2e {

namespace fs = std::filesystem;

namespace {

// Value in kB of a "Name:   123 kB" line of /proc/self/status, in bytes.
std::uint64_t status_bytes(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t n = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, n, field) == 0) {
      return std::stoull(line.substr(n)) * 1024;
    }
  }
  return 0;
}

}  // namespace

IoCounters read_io_counters() {
  IoCounters io;
  std::ifstream in("/proc/self/io");
  std::string key;
  std::uint64_t value = 0;
  while (in >> key >> value) {
    if (key == "rchar:") io.rchar = value;
    if (key == "wchar:") io.wchar = value;
  }
  return io;
}

void RssProbe::begin() {
  // Hand freed heap back first, so the baseline is live memory and the
  // growth does not depend on what earlier commands left in the allocator.
  ::malloc_trim(0);
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
  rss_before_ = status_bytes("VmRSS:");
}

std::uint64_t RssProbe::growth_bytes() const {
  const std::uint64_t peak = status_bytes("VmHWM:");
  return peak > rss_before_ ? peak - rss_before_ : 0;
}

void drop_page_cache(const fs::path& dir) {
  std::error_code ec;
  for (auto it = fs::recursive_directory_iterator(dir, ec);
       it != fs::recursive_directory_iterator(); it.increment(ec)) {
    if (ec) break;
    if (!it->is_regular_file(ec)) continue;
    const int fd = ::open(it->path().c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) continue;
    ::posix_fadvise(fd, 0, 0, POSIX_FADV_DONTNEED);
    ::close(fd);
  }
}

std::uint64_t tree_bytes(const fs::path& dir, const std::string& name) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (auto it = fs::recursive_directory_iterator(dir, ec);
       it != fs::recursive_directory_iterator(); it.increment(ec)) {
    if (ec) break;
    if (!it->is_regular_file(ec)) continue;
    if (!name.empty() && it->path().filename() != name) continue;
    total += it->file_size(ec);
  }
  return total;
}

std::string filesystem_type(const fs::path& dir) {
  struct statfs st {};
  if (::statfs(dir.c_str(), &st) != 0) return "unknown";
  static const std::map<unsigned long, const char*> kNames = {
      {0xEF53, "ext4"},     {0x58465342, "xfs"},  {0x01021994, "tmpfs"},
      {0x9123683E, "btrfs"}, {0x794C7630, "overlay"}, {0x6969, "nfs"},
      {0x2FC12FC1, "zfs"},  {0x65735546, "fuse"}};
  const auto magic = static_cast<unsigned long>(st.f_type);
  const auto it = kNames.find(magic);
  if (it != kNames.end()) return it->second;
  std::ostringstream hex;
  hex << "0x" << std::hex << magic;
  return hex.str();
}

CpuTicks read_cpu_ticks() {
  CpuTicks ticks;
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  // user nice system idle iowait irq softirq steal ...
  for (int field = 0; field < 10 && in; ++field) {
    std::uint64_t value = 0;
    if (!(in >> value)) break;
    ticks.total += value;
    if (field == 7) ticks.steal = value;
  }
  return ticks;
}

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace e2e
