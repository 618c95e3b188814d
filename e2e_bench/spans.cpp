#include "spans.h"

#include <cstdio>

#include "probe.h"

namespace e2e {

int SpanLog::open(std::string_view name, std::uint32_t command) {
  if (!enabled_) return -1;
  SpanRecord span;
  span.name = std::string(name);
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.command = command;
  span.start_ms = now_ms();
  spans_.push_back(std::move(span));
  const int index = static_cast<int>(spans_.size() - 1);
  stack_.push_back(index);
  return index;
}

void SpanLog::close(int index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_ms = now_ms();
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

void SpanLog::add_child(std::string_view name, double start_ms,
                        double total_ms, std::uint32_t command) {
  if (!enabled_) return;
  SpanRecord span;
  span.name = std::string(name);
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.command = command;
  span.start_ms = start_ms;
  span.end_ms = start_ms + total_ms;
  spans_.push_back(std::move(span));
}

std::vector<double> SpanLog::self_times() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_ms - spans_[i].start_ms;
  }
  for (const auto& span : spans_) {
    if (span.parent >= 0) {
      self[static_cast<std::size_t>(span.parent)] -=
          span.end_ms - span.start_ms;
    }
  }
  return self;
}

bool SpanLog::write_chrome_trace(const std::filesystem::path& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", out);
  const double origin = spans_.empty() ? 0.0 : spans_.front().start_ms;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    std::fprintf(out,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d,\"command\":%u}}",
                 i == 0 ? "" : ",", s.name.c_str(),
                 (s.start_ms - origin) * 1000.0,
                 (s.end_ms - s.start_ms) * 1000.0, i, s.parent, s.command);
  }
  std::fputs("\n]}\n", out);
  return std::fclose(out) == 0;
}

LayerTimes layer_times(const SpanLog& log) {
  const auto& spans = log.spans();
  const auto self = log.self_times();
  // Root span of each command, then each span's self time charged to its
  // command's kind under its own name (the root's own as the residual).
  std::map<std::uint32_t, std::size_t> root_of;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent < 0) root_of[spans[i].command] = i;
  }
  LayerTimes out;
  std::map<std::uint32_t, std::map<std::string, double>> per_command;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const bool root = spans[i].parent < 0;
    per_command[spans[i].command][root ? "unattributed" : spans[i].name] +=
        self[i];
  }
  for (const auto& [command, layers] : per_command) {
    const auto root = root_of.find(command);
    if (root == root_of.end()) continue;
    auto& kind = out[spans[root->second].name];
    for (const auto& [layer, ms] : layers) kind[layer].push_back(ms);
  }
  return out;
}

}  // namespace e2e
