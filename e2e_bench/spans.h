// Spans recorded by the benchmark around its calls into each layer of the
// program: name, start, end, parent and the id of the command they belong
// to. Kept in memory and written out as Chrome trace JSON at exit. A
// disabled log records nothing and reads no clock.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace e2e {

struct SpanRecord {
  std::string name;
  double start_ms = 0;
  double end_ms = 0;
  int parent = -1;  // index into the log, -1 for a command's root span
  std::uint32_t command = 0;
};

class SpanLog {
 public:
  void set_enabled(bool enabled) noexcept { enabled_ = enabled; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  // Opens a span under the innermost open one; -1 when disabled.
  int open(std::string_view name, std::uint32_t command);
  void close(int index);
  // Records finished work as a child of the innermost open span; used for
  // work spread over many short calls (the restore sink), so `start_ms` is
  // where its first call began and the span lasts `total_ms`.
  void add_child(std::string_view name, double start_ms, double total_ms,
                 std::uint32_t command);

  [[nodiscard]] const std::vector<SpanRecord>& spans() const noexcept {
    return spans_;
  }
  // Self time of every span: its duration minus what its children cover.
  [[nodiscard]] std::vector<double> self_times() const;

  bool write_chrome_trace(const std::filesystem::path& path) const;

 private:
  bool enabled_ = false;
  std::vector<SpanRecord> spans_;
  std::vector<int> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::string_view name, std::uint32_t command)
      : log_(log), index_(log.open(name, command)) {}
  ~ScopedSpan() { log_.close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  int index_;
};

// Per command kind (root span name): each layer's self time summed per
// command, one entry per traced command. The root's own self time is the
// unattributed residual, under the key "unattributed".
using LayerTimes =
    std::map<std::string, std::map<std::string, std::vector<double>>>;
[[nodiscard]] LayerTimes layer_times(const SpanLog& log);

}  // namespace e2e
