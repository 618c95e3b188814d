// e2e_bench: end-to-end backup/restore benchmark of a file-backed HiDeStore
// repository, driven in-process through the same library calls hds_tool
// makes. Every user command is one unit — ShardRouter::open, the work,
// save, destroy — run back to back by one client (closed loop).
//
//   e2e_bench --workload bigfile|kernel-chain|kernel-chain-4s --seed N
//             --seconds S --trace 0|1 --work-dir DIR
//             [--trace-out FILE] [--scale tiny] [--corrupt-expected]
//
// Prints a context line, then (traced runs) a per-command layer breakdown,
// then as its last line {"correct","attempted","failed","metrics"}: the
// end-to-end metrics untraced, the per-layer metrics traced. Every restore
// is checked byte for byte, fsck must be clean at the end; any violation
// is counted as failed and the exit status is 1. README.md in this
// directory maps each metric to its layer and workload.
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "backup/catalog.h"
#include "chunking/chunk_stream.h"
#include "chunking/parallel_chunk.h"
#include "chunking/tttd.h"
#include "common/parse.h"
#include "core/shard_router.h"
#include "probe.h"
#include "spans.h"
#include "storage/durable.h"
#include "verify/fsck.h"
#include "workload/generator.h"
#include "workload/profile.h"

#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif

namespace {

using namespace hds;
namespace fs = std::filesystem;
using e2e::now_ms;

constexpr double kMiB = 1024.0 * 1024.0;

// ---------------------------------------------------------------------------
// Workloads

struct WorkloadSpec {
  std::string name;
  bool bigfile = false;
  std::size_t shards = 1;
  // hds_tool --threads: chunking workers and restore read-ahead (0 = off).
  std::size_t threads = 0;
  std::size_t bigfile_bytes = 0;
  double edit_rate = 0.0;
  std::size_t chunks_per_version = 0;
  // Retention window: versions kept after every expire.
  VersionId keep = 2;
  // Complete set-ups per run; setup_s is their median.
  int setups = 5;
  // Every round backs up, expires and restores the newest version; every
  // `probe_every`-th one also lists and restores the older versions.
  std::uint64_t probe_every = 1;
};

std::optional<WorkloadSpec> spec_for(const std::string& name, bool tiny) {
  WorkloadSpec spec;
  spec.name = name;
  const std::size_t cores = std::max(1u, std::thread::hardware_concurrency());
  if (name == "bigfile") {
    spec.bigfile = true;
    spec.threads = std::min<std::size_t>(4, cores);
    spec.bigfile_bytes = tiny ? (2u << 20) : (40u << 20);
    spec.edit_rate = 0.01;
    spec.keep = 2;
  } else if (name == "kernel-chain" || name == "kernel-chain-4s") {
    const bool sharded = name == "kernel-chain-4s";
    spec.shards = sharded ? 4 : 1;
    spec.threads = sharded ? std::min<std::size_t>(4, cores) : 0;
    spec.chunks_per_version = tiny ? 256 : 2048;
    spec.keep = 4;
    spec.probe_every = 3;
  } else {
    return std::nullopt;
  }
  if (tiny) spec.setups = 1;
  return spec;
}

// 128-bit streaming digest of a byte stream, independent of how the stream
// is split into calls (bigfile restores arrive chunk by chunk).
class StreamDigest {
 public:
  void update(std::span<const std::uint8_t> bytes) {
    std::size_t i = 0;
    while (fill_ != 0 && i < bytes.size()) push_byte(bytes[i++]);
    for (; i + 8 <= bytes.size(); i += 8) {
      std::uint64_t w = 0;
      std::memcpy(&w, bytes.data() + i, 8);
      mix(w);
    }
    while (i < bytes.size()) push_byte(bytes[i++]);
    length_ += bytes.size();
  }
  [[nodiscard]] std::pair<std::uint64_t, std::uint64_t> finish() const {
    StreamDigest copy = *this;
    while (copy.fill_ != 0) copy.push_byte(0);
    copy.mix(length_);
    return {copy.a_, copy.b_};
  }

 private:
  void push_byte(std::uint8_t b) {
    pending_ |= static_cast<std::uint64_t>(b) << (8 * fill_);
    if (++fill_ == 8) {
      mix(pending_);
      pending_ = 0;
      fill_ = 0;
    }
  }
  void mix(std::uint64_t w) {
    a_ = (a_ ^ w) * 0xff51afd7ed558ccdULL;
    a_ ^= a_ >> 29;
    b_ = (b_ + w) * 0xc4ceb9fe1a85ec53ULL;
    b_ = (b_ << 31) | (b_ >> 33);
  }

  std::uint64_t a_ = 0x9E3779B97F4A7C15ULL;
  std::uint64_t b_ = 0xC2B2AE3D27D4EB4FULL;
  std::uint64_t pending_ = 0;
  unsigned fill_ = 0;
  std::uint64_t length_ = 0;
};

// What a restore of one version must produce.
struct Expected {
  std::uint64_t bytes = 0;
  // bigfile: digest of the version's bytes.
  std::pair<std::uint64_t, std::uint64_t> digest{};
  // chain: (content seed, size) of every chunk in stream order.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> chunks;
  // A deliberately wrong expected byte (self-test of the checker).
  std::optional<std::uint64_t> flip_at;
};

struct VersionInput {
  std::vector<std::uint8_t> bytes;  // bigfile
  VersionStream stream;             // chain (synthetic chunks)
  Expected expected;
};

class InputSource {
 public:
  InputSource(const WorkloadSpec& spec, std::uint64_t seed) : spec_(spec) {
    if (spec.bigfile) {
      bytes_.emplace(seed, spec.bigfile_bytes);
    } else {
      WorkloadProfile profile = WorkloadProfile::kernel();
      profile.chunks_per_version = spec.chunks_per_version;
      // The profile seed also namespaces chunk ids (seed << 20); keep it
      // small enough that ids of different seeds never overlap.
      SplitMix64 mix(seed);
      profile.seed = 1 + (mix.next() & 0xFFFFFFFFULL);
      chain_.emplace(profile);
    }
  }

  VersionInput next(std::optional<std::uint64_t> flip_at = std::nullopt) {
    VersionInput in;
    in.expected.flip_at = flip_at;
    if (bytes_) {
      in.bytes = bytes_->next_version(spec_.edit_rate);
      in.expected.bytes = in.bytes.size();
      in.expected.digest = digest_with_flip(in.bytes, flip_at);
    } else {
      in.stream = chain_->next_version();
      in.expected.chunks.reserve(in.stream.chunks.size());
      for (const auto& c : in.stream.chunks) {
        in.expected.chunks.emplace_back(c.content_seed, c.size);
        in.expected.bytes += c.size;
      }
    }
    return in;
  }

 private:
  static std::pair<std::uint64_t, std::uint64_t> digest_with_flip(
      const std::vector<std::uint8_t>& bytes,
      std::optional<std::uint64_t> flip_at) {
    StreamDigest d;
    if (!flip_at || *flip_at >= bytes.size()) {
      d.update(bytes);
      return d.finish();
    }
    const auto at = static_cast<std::size_t>(*flip_at);
    d.update(std::span(bytes).first(at));
    const std::uint8_t flipped = bytes[at] ^ 0x01;
    d.update(std::span(&flipped, 1));
    d.update(std::span(bytes).subspan(at + 1));
    return d.finish();
  }

  WorkloadSpec spec_;
  std::optional<ByteStreamWorkload> bytes_;
  std::optional<VersionChainGenerator> chain_;
};

// Restore sink that checks every byte against the expectation.
class VerifyingSink {
 public:
  explicit VerifyingSink(const Expected& expected) : expected_(expected) {}

  void operator()(std::span<const std::uint8_t> bytes) {
    if (expected_.chunks.empty()) {
      digest_.update(bytes);
    } else {
      check_chunk(bytes);
    }
    offset_ += bytes.size();
  }

  // True when the restored stream equals the expected version exactly.
  [[nodiscard]] bool exact() const {
    if (offset_ != expected_.bytes) return false;
    if (expected_.chunks.empty()) return digest_.finish() == expected_.digest;
    return mismatches_ == 0 && next_chunk_ == expected_.chunks.size();
  }

 private:
  void check_chunk(std::span<const std::uint8_t> bytes) {
    if (next_chunk_ >= expected_.chunks.size()) {
      ++mismatches_;
      return;
    }
    const auto [seed, size] = expected_.chunks[next_chunk_++];
    if (bytes.size() != size) {
      ++mismatches_;
      return;
    }
    scratch_.resize(size);
    generate_chunk_content(seed, size, scratch_.data());
    if (expected_.flip_at && *expected_.flip_at >= offset_ &&
        *expected_.flip_at < offset_ + size) {
      scratch_[static_cast<std::size_t>(*expected_.flip_at - offset_)] ^= 0x01;
    }
    if (std::memcmp(scratch_.data(), bytes.data(), size) != 0) ++mismatches_;
  }

  const Expected& expected_;
  StreamDigest digest_;
  std::vector<std::uint8_t> scratch_;
  std::uint64_t offset_ = 0;
  std::size_t next_chunk_ = 0;
  std::uint64_t mismatches_ = 0;
};

// ---------------------------------------------------------------------------
// Statistics

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// The highest percentile with at least ten samples beyond it: the 11th
// largest sample; the largest one when there are fewer than eleven.
double tail(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v.size() > 10 ? v[v.size() - 11] : v.back();
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// ---------------------------------------------------------------------------
// The benchmark

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  fs::path work_dir;
  fs::path trace_out;
  bool tiny = false;
  bool corrupt_expected = false;
};

// What one command cost, measured around the whole unit.
struct CommandCost {
  double wall_ms = 0;
  std::uint64_t wchar = 0;
  std::uint64_t rss_growth = 0;
  bool ok = true;
};

// Counters of the program read after each call, summed over shards.
struct ShardCounters {
  std::uint64_t container_writes = 0;
  std::uint64_t bytes_read_physical = 0;
  std::uint64_t block_hits = 0;
  std::uint64_t block_misses = 0;
  std::uint64_t fd_hits = 0;
  std::uint64_t fd_opens = 0;
  std::uint64_t partial_reads = 0;
};

std::uint64_t counter(const HiDeStore& shard, std::string_view name) {
  const auto* c = shard.metrics().find_counter(name);
  return c == nullptr ? 0 : c->value();
}

std::uint64_t sum_counter(const ShardRouter& sys, std::string_view name) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < sys.shard_count(); ++i) {
    total += counter(sys.shard(i), name);
  }
  return total;
}

ShardCounters read_store_counters(ShardRouter& sys) {
  ShardCounters out;
  for (std::size_t i = 0; i < sys.shard_count(); ++i) {
    auto& store = sys.shard(i).archival_store();
    out.container_writes += store.stats().container_writes.load();
    out.bytes_read_physical += store.stats().bytes_read_physical.load();
    if (auto* file = dynamic_cast<FileContainerStore*>(&store)) {
      const auto io = file->io_stats();
      out.block_hits += io.block_cache_hits;
      out.block_misses += io.block_cache_misses;
      out.fd_hits += io.fd_cache_hits;
      out.fd_opens += io.fd_cache_opens;
      out.partial_reads += io.partial_reads;
    }
  }
  return out;
}

class Bench {
 public:
  Bench(Options options, WorkloadSpec spec)
      : opt_(std::move(options)), spec_(std::move(spec)) {}

  int run();

 private:
  // Runs one command as a unit: optional cold page cache (untimed), then
  // the body inside the command's root span, with wall time, bytes written
  // and memory growth measured around it. A throwing body is a failure.
  template <class Body>
  CommandCost command(const char* kind, bool cold, Body&& body);

  std::unique_ptr<ShardRouter> open_repo();
  void close_repo(std::unique_ptr<ShardRouter>& sys);
  void save_repo(ShardRouter& sys);

  void setup_once(std::unique_ptr<InputSource>& source);
  void backup(VersionInput& in, bool timed, bool initial);
  void list();
  void expire(VersionId upto);
  void restore(VersionId version, bool latest);
  void fsck();
  void cycle();
  void set_traced(bool traced);
  template <class Command>
  void paired(Command&& run);

  void fail(const std::string& what) {
    ++failed_;
    std::fprintf(stderr, "e2e_bench: FAILED: %s\n", what.c_str());
  }
  void layer_sample(const std::string& name, double value) {
    if (traced_) layer_[name].push_back(value);
  }

  std::string context_json() const;
  std::string e2e_metrics_json() const;
  double peak_rss_mb() const;
  std::string layer_metrics_json(const e2e::LayerTimes& times);
  std::string breakdown_json(const e2e::LayerTimes& times) const;

  Options opt_;
  WorkloadSpec spec_;
  fs::path repo_;
  e2e::SpanLog spans_;
  bool traced_ = false;  // this command records spans and layer samples
  std::uint32_t command_id_ = 0;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::unique_ptr<InputSource> source_;
  std::map<VersionId, Expected> retained_;
  VersionId latest_ = 0;
  std::uint64_t cycles_ = 0;
  bool flip_pending_ = false;

  // End-to-end samples (timed phase only, except set-up).
  std::vector<double> setup_s_;
  std::vector<double> initial_mbps_;
  std::vector<double> list_ms_;
  std::vector<double> backup_ms_;
  double backup_bytes_ = 0;
  std::vector<double> expire_ms_;
  double latest_bytes_ = 0, latest_ms_ = 0;
  double old_bytes_ = 0, old_ms_ = 0;
  // Bytes written per backup and per expire command, and bytes backed up
  // per backup command.
  std::vector<double> backup_written_, expire_written_, backup_logical_;
  // Memory growth of every timed command, by command kind.
  std::map<std::string, std::vector<double>> rss_growth_;
  bool timed_ = false;
  std::vector<double> space_amp_;
  std::string io_backend_ = "none";
  // Share of the machine's CPU time taken by other guests while timing.
  double steal_share_ = 0;

  // Traced run: per-layer samples and ratio totals, and command walls split
  // by whether the command was traced.
  std::map<std::string, std::vector<double>> layer_;
  ShardCounters restore_io_;
  double restore_mb_total_ = 0, restore_reads_total_ = 0;
  std::map<std::string, std::vector<double>> wall_traced_, wall_untraced_;
};

template <class Body>
CommandCost Bench::command(const char* kind, bool cold, Body&& body) {
  ++attempted_;
  ++command_id_;
  if (cold) e2e::drop_page_cache(repo_);
  CommandCost cost;
  e2e::RssProbe rss;
  rss.begin();
  const auto io0 = e2e::read_io_counters();
  const double t0 = now_ms();
  {
    e2e::ScopedSpan root(spans_, std::string("cmd.") + kind, command_id_);
    try {
      body();
    } catch (const std::exception& e) {
      cost.ok = false;
      fail(std::string(kind) + ": " + e.what());
    }
  }
  cost.wall_ms = now_ms() - t0;
  cost.wchar = e2e::read_io_counters().wchar - io0.wchar;
  cost.rss_growth = rss.growth_bytes();
  (traced_ ? wall_traced_ : wall_untraced_)[kind].push_back(cost.wall_ms);
  if (timed_) {
    rss_growth_[kind].push_back(static_cast<double>(cost.rss_growth));
  }
  return cost;
}

std::unique_ptr<ShardRouter> Bench::open_repo() {
  e2e::ScopedSpan span(spans_, "core.open", command_id_);
  const auto io0 = e2e::read_io_counters();
  const double t0 = now_ms();
  RecoveryReport recovery;
  auto sys = ShardRouter::open(repo_, spec_.shards, &recovery);
  if (!sys) throw std::runtime_error("repository did not open");
  if (recovery.performed) fail("open ran crash recovery on a clean repository");
  if (spec_.threads > 1) sys->set_read_ahead(2 * spec_.threads, spec_.threads);
  layer_sample("core.open.ms", now_ms() - t0);
  layer_sample("core.open.bytes_read",
               static_cast<double>(e2e::read_io_counters().rchar - io0.rchar));
  return sys;
}

void Bench::close_repo(std::unique_ptr<ShardRouter>& sys) {
  e2e::ScopedSpan span(spans_, "core.close", command_id_);
  sys.reset();
}

void Bench::save_repo(ShardRouter& sys) {
  e2e::ScopedSpan span(spans_, "storage.save", command_id_);
  const auto io0 = e2e::read_io_counters();
  const double t0 = now_ms();
  sys.save(repo_);
  layer_sample("storage.save.ms", now_ms() - t0);
  layer_sample("storage.save.bytes_written",
               static_cast<double>(e2e::read_io_counters().wchar - io0.wchar));
  if (traced_) {
    layer_sample("storage.state_bytes",
                 static_cast<double>(e2e::tree_bytes(repo_, "state.hds")));
  }
}

// One `hds_tool backup` of `in`.
void Bench::backup(VersionInput& in, bool timed, bool initial) {
  BackupReport report;
  const char* kind =
      timed ? "backup" : initial ? "initial_backup" : "warmup_backup";
  const auto cost = command(kind, false, [&] {
    auto sys = open_repo();
    VersionStream chunked;
    const VersionStream* stream = &in.stream;
    if (spec_.bigfile) {
      e2e::ScopedSpan span(spans_, "chunking", command_id_);
      const double t0 = now_ms();
      TttdChunker chunker;
      if (spec_.threads > 1) {
        ParallelChunkConfig config;
        config.threads = spec_.threads;
        config.metrics = &sys->metrics();
        chunked = ParallelChunkPipeline(chunker, config).run(in.bytes);
      } else {
        chunked = chunk_bytes(chunker, in.bytes);
      }
      stream = &chunked;
      const double ms = now_ms() - t0;
      layer_sample("chunking.ms", ms);
      layer_sample("chunking.mbps",
                   ratio(static_cast<double>(in.bytes.size()) / kMiB,
                         ms / 1000.0));
      layer_sample("chunking.chunks",
                   static_cast<double>(chunked.chunks.size()));
      layer_sample("chunking.mean_chunk_bytes",
                   ratio(static_cast<double>(in.bytes.size()),
                         static_cast<double>(chunked.chunks.size())));
    }
    {
      e2e::ScopedSpan span(spans_, "core.backup", command_id_);
      const double t0 = now_ms();
      report = sys->backup(*stream);
      const double ms = now_ms() - t0;
      if (traced_) {
        // Phases of the slowest shard: the one the call waited for.
        double max_ms = 0, sum_ms = 0, phased = 0;
        std::map<std::string, double> phases;
        for (std::size_t i = 0; i < sys->shard_count(); ++i) {
          const auto ops = sys->shard(i).profiler().recent();
          if (ops.empty() || ops.back().kind != "backup") continue;
          const auto& op = ops.back();
          sum_ms += op.wall_ms;
          if (op.wall_ms >= max_ms) {
            max_ms = op.wall_ms;
            phases.clear();
            phased = 0;
            for (const auto& p : op.phases) {
              phases[p.name] += p.wall_ms;
              phased += p.wall_ms;
            }
          }
        }
        layer_sample("core.backup.ms", ms);
        layer_sample("core.backup.dedup_ms", phases["dedup"]);
        layer_sample("core.backup.move_and_merge_ms", phases["move_and_merge"]);
        layer_sample("core.backup.recipe_update_ms", phases["recipe_update"]);
        layer_sample("core.backup.unprofiled_ms", ms - phased);
        layer_sample("router.shard_backup_max_ms", max_ms);
        layer_sample("router.shard_skew",
                     ratio(max_ms, sum_ms / static_cast<double>(
                                                sys->shard_count())));
        for (const char* name : {"t1_hits", "t2_hits", "unique_chunks",
                                 "cold_chunks_moved", "containers_merged"}) {
          layer_sample(std::string("core.") + name,
                       static_cast<double>(sum_counter(*sys, name)));
        }
        double cache_bytes = 0;
        for (std::size_t i = 0; i < sys->shard_count(); ++i) {
          cache_bytes +=
              static_cast<double>(sys->shard(i).cache_memory_bytes());
        }
        layer_sample("core.cache_memory_bytes", cache_bytes);
      }
    }
    if (report.version != latest_ + 1) {
      fail("backup produced version " + std::to_string(report.version) +
           ", expected " + std::to_string(latest_ + 1));
    }
    if (sum_counter(*sys, "index_disk_lookups") != 0) {
      fail("index_disk_lookups != 0 after backup");
    }
    {
      // The file catalog, exactly as hds_tool keeps it.
      e2e::ScopedSpan span(spans_, "catalog", command_id_);
      FileCatalog catalog;
      const auto file = repo_ / "catalog.hds";
      if (fs::exists(file)) {
        std::ifstream f(file, std::ios::binary);
        const std::vector<std::uint8_t> bytes(
            (std::istreambuf_iterator<char>(f)),
            std::istreambuf_iterator<char>());
        if (auto parsed = FileCatalog::deserialize(bytes)) {
          catalog = std::move(*parsed);
        }
      }
      catalog.add_version(report.version,
                          {{spec_.name, 0, report.logical_bytes}});
      durable::atomic_write_file(file, catalog.serialize());
    }
    save_repo(*sys);
    if (traced_) {
      layer_sample("storage.container_writes",
                   static_cast<double>(
                       read_store_counters(*sys).container_writes));
    }
    close_repo(sys);
  });
  if (!cost.ok) return;
  latest_ = report.version;
  retained_[report.version] = std::move(in.expected);
  const double mb = static_cast<double>(report.logical_bytes) / kMiB;
  if (initial) initial_mbps_.push_back(ratio(mb, cost.wall_ms / 1000.0));
  if (timed) {
    backup_ms_.push_back(cost.wall_ms);
    backup_bytes_ += static_cast<double>(report.logical_bytes);
    backup_logical_.push_back(static_cast<double>(report.logical_bytes));
    backup_written_.push_back(static_cast<double>(cost.wchar));
  }
}

void Bench::list() {
  // What `hds_tool list` prints: each version's size and chunk count (a
  // version without chunks is listed as empty).
  std::map<VersionId, std::uint64_t> listed;
  const auto cost = command("list", true, [&] {
    auto sys = open_repo();
    {
      e2e::ScopedSpan span(spans_, "core.versions", command_id_);
      for (const VersionId v : sys->versions()) {
        listed[v] = sys->version_chunk_count(v) > 0
                        ? sys->version_logical_bytes(v)
                        : 0;
      }
    }
    close_repo(sys);
  });
  std::map<VersionId, std::uint64_t> expected;
  for (const auto& [v, e] : retained_) expected[v] = e.bytes;
  if (cost.ok && listed != expected) {
    fail("list does not show the retained versions");
  }
  list_ms_.push_back(cost.wall_ms);
}

void Bench::expire(VersionId upto) {
  DeletionReport report;
  const auto cost = command("expire", false, [&] {
    auto sys = open_repo();
    {
      e2e::ScopedSpan span(spans_, "core.expire", command_id_);
      const double t0 = now_ms();
      report = sys->delete_versions_up_to(upto);
      layer_sample("core.expire.ms", now_ms() - t0);
      layer_sample("core.expire.containers_erased",
                   static_cast<double>(report.containers_erased));
      layer_sample("core.expire.chunks_scanned",
                   static_cast<double>(report.chunks_scanned));
    }
    save_repo(*sys);
    close_repo(sys);
  });
  if (!cost.ok) return;
  if (report.chunks_scanned != 0) fail("expire scanned chunks");
  for (auto it = retained_.begin(); it != retained_.end();) {
    it = it->first <= upto ? retained_.erase(it) : std::next(it);
  }
  expire_ms_.push_back(cost.wall_ms);
  expire_written_.push_back(static_cast<double>(cost.wchar));
}

void Bench::restore(VersionId version, bool latest) {
  const auto found = retained_.find(version);
  if (found == retained_.end()) {
    fail("restore of a version the benchmark does not retain");
    return;
  }
  VerifyingSink verify(found->second);
  RestoreReport report;
  double restore_ms = 0;
  const auto cost = command("restore", true, [&] {
    auto sys = open_repo();
    const auto before = read_store_counters(*sys);
    {
      e2e::ScopedSpan span(spans_, "restore", command_id_);
      double sink_ms = 0, sink_start = 0;
      const bool time_sink = traced_;
      const double t0 = now_ms();
      report = sys->restore(
          version, [&](const ChunkLoc&, std::span<const std::uint8_t> bytes) {
            if (!time_sink) return verify(bytes);
            const double s0 = now_ms();
            if (sink_start == 0) sink_start = s0;
            verify(bytes);
            sink_ms += now_ms() - s0;
          });
      restore_ms = now_ms() - t0;
      spans_.add_child("bench.sink", sink_start, sink_ms, command_id_);
      layer_sample("bench.sink_ms", sink_ms);
    }
    if (traced_) {
      const auto after = read_store_counters(*sys);
      restore_io_.bytes_read_physical +=
          after.bytes_read_physical - before.bytes_read_physical;
      restore_io_.block_hits += after.block_hits - before.block_hits;
      restore_io_.block_misses += after.block_misses - before.block_misses;
      restore_io_.fd_hits += after.fd_hits - before.fd_hits;
      restore_io_.fd_opens += after.fd_opens - before.fd_opens;
      restore_io_.partial_reads += after.partial_reads - before.partial_reads;
      layer_sample("storage.bytes_read_physical",
                   static_cast<double>(after.bytes_read_physical -
                                       before.bytes_read_physical));
      layer_sample("storage.partial_reads",
                   static_cast<double>(after.partial_reads -
                                       before.partial_reads));
      layer_sample("restore.ms", restore_ms);
      layer_sample("restore.container_reads",
                   static_cast<double>(report.stats.container_reads));
      layer_sample("restore.cache_hits",
                   static_cast<double>(report.stats.cache_hits));
      layer_sample("restore.failed_chunks",
                   static_cast<double>(report.stats.failed_chunks));
      layer_sample("restore.prefetch_wasted",
                   static_cast<double>(
                       sum_counter(*sys, "restore_prefetch_wasted")));
      restore_mb_total_ +=
          static_cast<double>(report.stats.restored_bytes) / kMiB;
      restore_reads_total_ +=
          static_cast<double>(report.stats.container_reads);
    }
    if (auto* file = dynamic_cast<FileContainerStore*>(
            &sys->shard(0).archival_store())) {
      io_backend_ = std::string(file->io_backend_name());
    }
    close_repo(sys);
  });
  if (!cost.ok) return;
  if (report.stats.failed_chunks != 0 || !verify.exact()) {
    fail("restore of version " + std::to_string(version) +
         " is not byte-exact");
    return;
  }
  const double bytes = static_cast<double>(report.stats.restored_bytes);
  (latest ? latest_bytes_ : old_bytes_) += bytes;
  (latest ? latest_ms_ : old_ms_) += restore_ms;
}

void Bench::fsck() {
  command("fsck", false, [&] {
    auto sys = open_repo();
    {
      e2e::ScopedSpan span(spans_, "verify.fsck", command_id_);
      const double t0 = now_ms();
      const auto report = verify::run_fsck(*sys);
      layer_sample("verify.fsck.ms", now_ms() - t0);
      if (!report.clean()) fail("fsck: " + report.to_text());
    }
    close_repo(sys);
  });
}

// Set-up: generate inputs, create the repository and run the warm-up
// versions until the retention window is full (bigfile: the initial
// backup).
void Bench::setup_once(std::unique_ptr<InputSource>& source) {
  std::error_code ec;
  fs::remove_all(repo_, ec);
  retained_.clear();
  latest_ = 0;
  const double t0 = now_ms();
  source = std::make_unique<InputSource>(spec_, opt_.seed);
  command("init", false, [&] {
    ShardRouterConfig config;
    config.shards = spec_.shards;
    config.base.storage_dir = repo_;
    ShardRouter sys(config);
    sys.save(repo_);
  });
  const VersionId warmup = spec_.bigfile ? 1 : spec_.keep;
  for (VersionId v = 1; v <= warmup; ++v) {
    auto in = source->next();
    backup(in, false, v == 1);
  }
  setup_s_.push_back((now_ms() - t0) / 1000.0);
}

void Bench::set_traced(bool traced) {
  traced_ = traced;
  spans_.set_enabled(traced);
}

// A traced run runs each read-only command (list, restore) twice on the
// same repository state, traced and then untraced, so its layer times can
// be checked against the untraced wall time they must add up to.
template <class Command>
void Bench::paired(Command&& run) {
  if (!opt_.trace) return run();
  set_traced(true);
  run();
  set_traced(false);
  run();
}

// One closed-loop round of user commands: back up the next version, expire
// the one leaving the window and restore the newest; every
// `probe_every`-th round also lists and restores the older versions.
void Bench::cycle() {
  const bool probe_round = cycles_ % spec_.probe_every == 0;
  if (probe_round) paired([&] { list(); });
  // A traced run traces the backup and expire of rounds 0, 3, 4, 7, 8, ...
  // and leaves 1, 2, 5, 6, ... untraced: adjacent versions, in an order
  // that cancels a steady drift of command cost over the run.
  set_traced(opt_.trace && (cycles_ + 1) % 4 < 2);
  std::optional<std::uint64_t> flip;
  if (flip_pending_) {
    flip_pending_ = false;
    flip = 4097;  // a byte inside the next version
  }
  auto in = source_->next(flip);
  backup(in, true, false);
  if (latest_ > spec_.keep) expire(latest_ - spec_.keep);
  ++cycles_;
  paired([&] { restore(latest_, true); });
  if (!probe_round) return;
  for (const auto& [v, e] : retained_) {
    if (v != latest_) paired([&] { restore(v, false); });
  }
  // Repository size swings as compaction and deletion erase containers in
  // bursts; sample it at every probe rather than once at the end.
  double retained_bytes = 0;
  for (const auto& [v, e] : retained_) {
    retained_bytes += static_cast<double>(e.bytes);
  }
  space_amp_.push_back(ratio(static_cast<double>(e2e::tree_bytes(repo_)),
                             retained_bytes));
}

// Keeps every CPU busy for `ms`: after an idle spell these virtual CPUs run
// the first second of work up to 3x slower, which would land in whichever
// command came first.
void warm_cpus(double ms) {
  const unsigned n = std::max(1u, std::thread::hardware_concurrency());
  std::atomic<std::uint64_t> checksum{0};
  std::vector<std::thread> threads;
  for (unsigned i = 0; i < n; ++i) {
    threads.emplace_back([ms, i, &checksum] {
      SplitMix64 mix(i);
      std::uint64_t sum = 0;
      const double end = now_ms() + ms;
      while (now_ms() < end) {
        for (int k = 0; k < 4096; ++k) sum += mix.next();
      }
      checksum.fetch_add(sum, std::memory_order_relaxed);
    });
  }
  for (auto& t : threads) t.join();
}

int Bench::run() {
  repo_ = opt_.work_dir / "repo";
  fs::create_directories(opt_.work_dir);
  warm_cpus(opt_.tiny ? 50 : 1500);

  // Set-up commands are traced (as their own command kinds) but add no
  // per-layer samples.
  spans_.set_enabled(opt_.trace);
  for (int i = 0; i < spec_.setups; ++i) setup_once(source_);
  flip_pending_ = opt_.corrupt_expected;

  timed_ = true;
  const auto cpu0 = e2e::read_cpu_ticks();
  const double t0 = now_ms();
  const double budget_ms = opt_.seconds * 1000.0;
  while (cycles_ == 0 || now_ms() - t0 < budget_ms) cycle();
  const auto cpu1 = e2e::read_cpu_ticks();
  steal_share_ = ratio(static_cast<double>(cpu1.steal - cpu0.steal),
                       static_cast<double>(cpu1.total - cpu0.total));
  timed_ = false;
  set_traced(opt_.trace);
  fsck();
  spans_.set_enabled(false);

  std::printf("%s\n", context_json().c_str());
  std::string metrics;
  if (opt_.trace) {
    const auto times = e2e::layer_times(spans_);
    std::printf("%s\n", breakdown_json(times).c_str());
    if (!opt_.trace_out.empty() && !spans_.write_chrome_trace(opt_.trace_out)) {
      std::fprintf(stderr, "e2e_bench: cannot write %s\n",
                   opt_.trace_out.c_str());
    }
    metrics = layer_metrics_json(times);
  } else {
    metrics = e2e_metrics_json();
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      failed_ == 0 ? "true" : "false",
      static_cast<unsigned long long>(attempted_),
      static_cast<unsigned long long>(failed_), metrics.c_str());
  std::fflush(stdout);
  std::error_code ec;
  fs::remove_all(repo_, ec);
  return failed_ == 0 ? 0 : 1;
}

std::string metric(const std::string& name, double value, const char* unit) {
  if (!std::isfinite(value)) value = 0;
  char buf[256];
  std::snprintf(buf, sizeof buf, "\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                name.c_str(), value, unit);
  return buf;
}

std::string json_list(const std::vector<double>& values) {
  std::string out = "[";
  for (const double v : values) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%s%.4g", out.size() > 1 ? ", " : "", v);
    out += buf;
  }
  return out + "]";
}

std::string Bench::context_json() const {
  std::string rss;
  for (const auto& [kind, growth] : rss_growth_) {
    char item[96];
    std::snprintf(item, sizeof item, "%s\"%s\": %.1f", rss.empty() ? "" : ", ",
                  kind.c_str(), median(growth) / kMiB);
    rss += item;
  }
  char buf[4096];
  std::snprintf(
      buf, sizeof buf,
      "{\"context\": {\"workload\": \"%s\", \"seed\": %llu, \"nproc\": %u, "
      "\"build_type\": \"%s\", \"filesystem\": \"%s\", \"io_backend\": "
      "\"%s\", \"shards\": %zu, \"threads\": %zu, \"version_bytes\": %.0f, "
      "\"keep\": %u, \"cycles\": %llu, \"cpu_steal_share\": %.4f, "
      "\"backup_samples\": %zu, "
      "\"list_samples\": %zu, \"expire_samples\": %zu, \"failed_ops\": %.6g, "
      "\"flush\": \"fsync per file (AtomicFileWriter)\", \"setup_s\": %s, "
      "\"initial_backup_mbps\": %s, \"backup_ms\": %s, \"rss_growth_mb\": "
      "{%s}}}",
      spec_.name.c_str(), static_cast<unsigned long long>(opt_.seed),
      std::max(1u, std::thread::hardware_concurrency()), E2E_BUILD_TYPE,
      e2e::filesystem_type(opt_.work_dir).c_str(), io_backend_.c_str(),
      spec_.shards, spec_.threads,
      retained_.empty() ? 0.0
                        : static_cast<double>(retained_.rbegin()->second.bytes),
      spec_.keep, static_cast<unsigned long long>(cycles_), steal_share_,
      backup_ms_.size(),
      list_ms_.size(), expire_ms_.size(),
      ratio(static_cast<double>(failed_), static_cast<double>(attempted_)),
      json_list(setup_s_).c_str(), json_list(initial_mbps_).c_str(),
      json_list(backup_ms_).c_str(), rss.c_str());
  return buf;
}

// The command kind with the largest typical (median) memory growth.
double Bench::peak_rss_mb() const {
  double peak = 0;
  for (const auto& [kind, growth] : rss_growth_) {
    peak = std::max(peak, median(growth));
  }
  return peak / kMiB;
}

std::string Bench::e2e_metrics_json() const {
  double backup_total_ms = 0;
  for (const double ms : backup_ms_) backup_total_ms += ms;
  const std::vector<std::string> parts = {
      metric("setup_s", median(setup_s_), "s"),
      metric("list_ms", median(list_ms_), "ms"),
      metric("initial_backup_mbps", median(initial_mbps_), "MB/s"),
      metric("backup_mbps",
             ratio(backup_bytes_ / kMiB, backup_total_ms / 1000.0), "MB/s"),
      metric("backup_p50_ms", median(backup_ms_), "ms"),
      metric("backup_tail_ms", tail(backup_ms_), "ms"),
      metric("expire_p50_ms", median(expire_ms_), "ms"),
      metric("restore_latest_mbps",
             ratio(latest_bytes_ / kMiB, latest_ms_ / 1000.0), "MB/s"),
      metric("restore_old_mbps", ratio(old_bytes_ / kMiB, old_ms_ / 1000.0),
             "MB/s"),
      // One round writes one backup and one expire; medians keep the first
      // round on bigfile, which has nothing to expire yet, from counting.
      metric("write_amp",
             ratio(median(backup_written_) + median(expire_written_),
                   median(backup_logical_)),
             "ratio"),
      metric("space_amp", median(space_amp_), "ratio"),
      metric("peak_rss_mb", peak_rss_mb(), "MB"),
  };
  std::string out;
  for (const auto& p : parts) out += (out.empty() ? "" : ", ") + p;
  return out;
}

std::string Bench::layer_metrics_json(const e2e::LayerTimes& times) {
  const auto med = [&](const char* name) { return median(layer_[name]); };
  const auto avg = [&](const char* name) { return mean(layer_[name]); };
  std::vector<std::string> parts = {
      metric("chunking.ms", med("chunking.ms"), "ms"),
      metric("chunking.mbps", med("chunking.mbps"), "MB/s"),
      metric("chunking.chunks", avg("chunking.chunks"), "count"),
      metric("chunking.mean_chunk_bytes", avg("chunking.mean_chunk_bytes"),
             "bytes"),
      metric("core.open.ms", med("core.open.ms"), "ms"),
      metric("core.open.bytes_read", avg("core.open.bytes_read"), "bytes"),
      metric("core.backup.ms", med("core.backup.ms"), "ms"),
      metric("core.backup.dedup_ms", med("core.backup.dedup_ms"), "ms"),
      metric("core.backup.move_and_merge_ms",
             med("core.backup.move_and_merge_ms"), "ms"),
      metric("core.backup.recipe_update_ms",
             med("core.backup.recipe_update_ms"), "ms"),
      metric("core.backup.unprofiled_ms", med("core.backup.unprofiled_ms"),
             "ms"),
      metric("core.t1_hits", avg("core.t1_hits"), "count"),
      metric("core.t2_hits", avg("core.t2_hits"), "count"),
      metric("core.unique_chunks", avg("core.unique_chunks"), "count"),
      metric("core.cold_chunks_moved", avg("core.cold_chunks_moved"), "count"),
      metric("core.containers_merged", avg("core.containers_merged"),
             "count"),
      metric("core.cache_memory_bytes", avg("core.cache_memory_bytes"),
             "bytes"),
      metric("core.expire.ms", med("core.expire.ms"), "ms"),
      metric("core.expire.containers_erased",
             avg("core.expire.containers_erased"), "count"),
      metric("core.expire.chunks_scanned", avg("core.expire.chunks_scanned"),
             "count"),
      metric("router.shard_backup_max_ms", med("router.shard_backup_max_ms"),
             "ms"),
      metric("router.shard_skew", med("router.shard_skew"), "ratio"),
      metric("storage.save.ms", med("storage.save.ms"), "ms"),
      metric("storage.save.bytes_written", avg("storage.save.bytes_written"),
             "bytes"),
      metric("storage.state_bytes", avg("storage.state_bytes"), "bytes"),
      metric("storage.container_writes", avg("storage.container_writes"),
             "count"),
      metric("storage.bytes_read_physical",
             avg("storage.bytes_read_physical"), "bytes"),
      metric("storage.block_cache_hit_ratio",
             ratio(static_cast<double>(restore_io_.block_hits),
                   static_cast<double>(restore_io_.block_hits +
                                       restore_io_.block_misses)),
             "ratio"),
      metric("storage.fd_cache_hit_ratio",
             ratio(static_cast<double>(restore_io_.fd_hits),
                   static_cast<double>(restore_io_.fd_hits +
                                       restore_io_.fd_opens)),
             "ratio"),
      metric("storage.partial_reads", avg("storage.partial_reads"), "count"),
      metric("restore.ms", med("restore.ms"), "ms"),
      metric("restore.container_reads", avg("restore.container_reads"),
             "count"),
      metric("restore.speed_factor",
             ratio(restore_mb_total_, restore_reads_total_), "MB/read"),
      metric("restore.cache_hits", avg("restore.cache_hits"), "count"),
      metric("restore.prefetch_wasted", avg("restore.prefetch_wasted"),
             "count"),
      metric("restore.failed_chunks", avg("restore.failed_chunks"), "count"),
      metric("verify.fsck.ms", med("verify.fsck.ms"), "ms"),
      metric("bench.sink_ms", med("bench.sink_ms"), "ms"),
      metric("failed_ops",
             ratio(static_cast<double>(failed_),
                   static_cast<double>(attempted_)),
             "ratio"),
  };
  // Tracing overhead and whether each command kind's layer times add up to
  // its untraced wall time (medians over traced / untraced commands).
  double traced_sum = 0, untraced_sum = 0;
  for (const char* kind : {"list", "backup", "expire", "restore"}) {
    const double traced = median(wall_traced_[kind]);
    const double untraced = median(wall_untraced_[kind]);
    traced_sum += traced;
    untraced_sum += untraced;
    double attributed = 0, residual = 0;
    const auto found = times.find(std::string("cmd.") + kind);
    if (found != times.end()) {
      for (const auto& [layer, ms] : found->second) {
        (layer == "unattributed" ? residual : attributed) += median(ms);
      }
    }
    parts.push_back(metric(std::string("bench.attributed_share.") + kind,
                           ratio(attributed, untraced), "ratio"));
    parts.push_back(metric(std::string("bench.unattributed_share.") + kind,
                           ratio(residual, traced), "ratio"));
  }
  parts.push_back(
      metric("bench.trace_overhead", ratio(traced_sum, untraced_sum), "ratio"));
  std::string out;
  for (const auto& p : parts) out += (out.empty() ? "" : ", ") + p;
  return out;
}

// {"breakdown": {kind: {"commands": n, "traced_ms": .., "untraced_ms": ..,
// "self_ms": {layer: median}}}}: where each command kind's time went.
std::string Bench::breakdown_json(const e2e::LayerTimes& times) const {
  std::string out = "{\"breakdown\": {";
  bool first_kind = true;
  for (const auto& [kind, layers] : times) {
    const std::string short_kind = kind.substr(4);  // drop "cmd."
    const auto traced = wall_traced_.find(short_kind);
    const auto untraced = wall_untraced_.find(short_kind);
    char head[256];
    std::snprintf(
        head, sizeof head,
        "%s\"%s\": {\"commands\": %zu, \"traced_ms\": %.3f, "
        "\"untraced_ms\": %.3f, \"self_ms\": {",
        first_kind ? "" : ", ", short_kind.c_str(),
        traced == wall_traced_.end() ? 0 : traced->second.size(),
        traced == wall_traced_.end() ? 0.0 : median(traced->second),
        untraced == wall_untraced_.end() ? 0.0 : median(untraced->second));
    out += head;
    first_kind = false;
    bool first_layer = true;
    for (const auto& [layer, ms] : layers) {
      char item[160];
      std::snprintf(item, sizeof item, "%s\"%s\": %.3f",
                    first_layer ? "" : ", ", layer.c_str(), median(ms));
      out += item;
      first_layer = false;
    }
    out += "}}";
  }
  out += "}}";
  return out;
}

int usage() {
  std::fprintf(stderr,
               "usage: e2e_bench --workload bigfile|kernel-chain|"
               "kernel-chain-4s --seed N --seconds S --trace 0|1 "
               "--work-dir DIR [--trace-out FILE] [--scale tiny] "
               "[--corrupt-expected]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // Pin glibc's mmap threshold at the ceiling its dynamic adjustment
  // climbs to as a process frees large buffers. Left dynamic, where it
  // stands depends on what earlier commands in this process freed, and so
  // does each command's memory growth.
  mallopt(M_MMAP_THRESHOLD, 32 * 1024 * 1024);
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) return "";
      return argv[++i];
    };
    if (arg == "--workload") {
      opt.workload = value();
    } else if (arg == "--seed") {
      const auto v = parse_uint(value(), UINT64_MAX);
      if (!v) return usage();
      opt.seed = *v;
    } else if (arg == "--seconds") {
      const auto v = parse_uint(value(), 3600);
      if (!v || *v == 0) return usage();
      opt.seconds = static_cast<double>(*v);
    } else if (arg == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") return usage();
      opt.trace = v == "1";
    } else if (arg == "--work-dir") {
      opt.work_dir = value();
    } else if (arg == "--trace-out") {
      opt.trace_out = value();
    } else if (arg == "--scale") {
      const std::string v = value();
      if (v != "tiny" && v != "full") return usage();
      opt.tiny = v == "tiny";
    } else if (arg == "--corrupt-expected") {
      opt.corrupt_expected = true;
    } else {
      return usage();
    }
  }
  const auto spec = spec_for(opt.workload, opt.tiny);
  if (!spec || opt.work_dir.empty()) return usage();
  try {
    return Bench(opt, *spec).run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_bench: %s\n", e.what());
    return 1;
  }
}
