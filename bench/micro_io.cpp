// Micro-benchmarks for the container I/O fast path (DESIGN.md §10) and the
// restore read path (§13): slurp vs footer-index partial reads, fd-cache
// descriptor reuse, block-cache hits, the CRC-carrying staged copy batched
// compaction/eviction uses, and cold-cache fragmented reads from one and
// two concurrent streams. Every bench that goes through the store reports
// wall-clock time (UseRealTime): device waits cost no CPU, so CPU-time
// rates would flatter exactly the reads this file measures.
// CI runs this with --benchmark_out=BENCH_io.json (artifact "BENCH_io").
#include <benchmark/benchmark.h>

#include <fcntl.h>
#include <unistd.h>

#include <filesystem>
#include <memory>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "storage/container_store.h"

namespace {

using namespace hds;

constexpr std::size_t kChunks = 1000;
constexpr std::size_t kChunkBytes = 4096;

Container filled_container() {
  Container c(0, 4 * 1024 * 1024 + 64 * 1024);
  for (std::size_t i = 0; i < kChunks; ++i) {
    std::vector<std::uint8_t> data(kChunkBytes);
    generate_chunk_content(i, kChunkBytes, data.data());
    c.add(Fingerprint::from_seed(i), data);
  }
  return c;
}

// One ~4 MiB container in a scratch directory, tuned per benchmark.
struct StoreFixture {
  std::filesystem::path dir;
  std::unique_ptr<FileContainerStore> store;
  ContainerId id = 0;

  StoreFixture(const char* name, const FileStoreTuning& tuning)
      : dir(std::filesystem::temp_directory_path() / name) {
    std::filesystem::remove_all(dir);
    store = std::make_unique<FileContainerStore>(dir, false, tuning);
    id = store->write(filled_container());
  }
  ~StoreFixture() {
    store.reset();
    std::filesystem::remove_all(dir);
  }
};

// Drops a file's pages from the OS page cache (POSIX_FADV_DONTNEED) so a
// timed read actually queues against the block device instead of memcpying
// from RAM. The container was written through the fsync'd commit protocol,
// so its pages are clean and the advice takes effect. Degrades to a no-op
// (warm-cache numbers) on filesystems that ignore the advice, e.g. tmpfs.
struct PageCacheEvictor {
  int fd = -1;
  explicit PageCacheEvictor(const std::filesystem::path& path)
      : fd(::open(path.c_str(), O_RDONLY | O_CLOEXEC)) {}
  PageCacheEvictor(const PageCacheEvictor&) = delete;
  PageCacheEvictor& operator=(const PageCacheEvictor&) = delete;
  ~PageCacheEvictor() {
    if (fd >= 0) ::close(fd);
  }
  void evict() const {
    if (fd >= 0) (void)::posix_fadvise(fd, 0, 0, POSIX_FADV_DONTNEED);
  }
};

// Every `n` requested fingerprints spread evenly across the container.
std::vector<Fingerprint> spread_fps(std::size_t n) {
  std::vector<Fingerprint> fps;
  for (std::size_t i = 0; i < n; ++i) {
    fps.push_back(Fingerprint::from_seed(i * (kChunks / n)));
  }
  return fps;
}

// Baseline: whole-file slurp (caches off) — what every read cost before
// the footer index existed.
void BM_FileReadSlurp(benchmark::State& state) {
  FileStoreTuning tuning;
  tuning.block_cache_bytes = 0;
  StoreFixture fx("hds_micro_io_slurp", tuning);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.store->read(fx.id));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kChunks * kChunkBytes));
}
BENCHMARK(BM_FileReadSlurp)->UseRealTime();

// Footer-index partial read of Arg(0) chunks (caches off): preads exactly
// header + footer + the coalesced extents.
void BM_FilePartialRead(benchmark::State& state) {
  FileStoreTuning tuning;
  tuning.block_cache_bytes = 0;
  StoreFixture fx("hds_micro_io_partial", tuning);
  const auto fps = spread_fps(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.store->read_chunks(fx.id, fps));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(fps.size() * kChunkBytes));
}
BENCHMARK(BM_FilePartialRead)->Arg(1)->Arg(10)->Arg(100)->UseRealTime();

// Same single-chunk partial read with the fd cache disabled: isolates the
// open/fstat/close pair the cache removes from every read.
void BM_FilePartialReadNoFdCache(benchmark::State& state) {
  FileStoreTuning tuning;
  tuning.block_cache_bytes = 0;
  tuning.fd_cache_slots = 0;
  StoreFixture fx("hds_micro_io_nofd", tuning);
  const auto fps = spread_fps(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.store->read_chunks(fx.id, fps));
  }
}
BENCHMARK(BM_FilePartialReadNoFdCache)->UseRealTime();

// Block-cache hit: the container is resident after the warm-up read, so
// the loop measures pure cache lookup + accounting.
void BM_FileReadBlockCacheHit(benchmark::State& state) {
  StoreFixture fx("hds_micro_io_hit", FileStoreTuning{});
  benchmark::DoNotOptimize(fx.store->read(fx.id));  // warm
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.store->read(fx.id));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kChunks * kChunkBytes));
}
BENCHMARK(BM_FileReadBlockCacheHit)->UseRealTime();

// Batched eviction/compaction staging: copying chunks between containers
// with the already-verified CRC carried over (add_with_crc) vs recomputing
// it per chunk (add). The delta is the CRC pass batched I/O avoids.
void BM_StagedCopyKnownCrc(benchmark::State& state) {
  const auto src = filled_container();
  for (auto _ : state) {
    Container dst(2, 4 * 1024 * 1024 + 64 * 1024);
    for (const auto& [fp, entry] : src.entries()) {
      dst.add_with_crc(fp, *src.read(fp), entry.crc);
    }
    benchmark::DoNotOptimize(dst.chunk_count());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kChunks * kChunkBytes));
}
BENCHMARK(BM_StagedCopyKnownCrc);

// Cold-cache fragmented read (DESIGN.md §13): the same 100-chunk partial
// read as BM_FilePartialRead/100 with the block cache off and the file's
// pages evicted from the OS page cache before every iteration, so the
// extent preads queue against the device.
void BM_ColdPartialRead(benchmark::State& state) {
  FileStoreTuning tuning;
  tuning.block_cache_bytes = 0;
  StoreFixture fx("hds_micro_io_cold", tuning);
  const PageCacheEvictor evictor(fx.store->container_path(fx.id));
  const auto fps = spread_fps(100);
  for (auto _ : state) {
    state.PauseTiming();
    evictor.evict();
    state.ResumeTiming();
    benchmark::DoNotOptimize(fx.store->read_chunks(fx.id, fps));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(fps.size() * kChunkBytes));
}
BENCHMARK(BM_ColdPartialRead)->UseRealTime();

// Two concurrent restore streams over one shared store, each issuing the
// cold fragmented read with its own ReadMeter: how far two blocking read
// loops overlap on the device. Reported throughput counts both streams.
void BM_ColdTwoStreamRead(benchmark::State& state) {
  FileStoreTuning tuning;
  tuning.block_cache_bytes = 0;
  StoreFixture fx("hds_micro_io_cold2", tuning);
  const PageCacheEvictor evictor(fx.store->container_path(fx.id));
  const auto fps = spread_fps(100);
  for (auto _ : state) {
    state.PauseTiming();
    evictor.evict();
    state.ResumeTiming();
    ReadMeter meters[2];
    std::thread other([&] {
      benchmark::DoNotOptimize(fx.store->read_chunks(fx.id, fps, &meters[1]));
    });
    benchmark::DoNotOptimize(fx.store->read_chunks(fx.id, fps, &meters[0]));
    other.join();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 2 *
                          static_cast<std::int64_t>(fps.size() * kChunkBytes));
}
BENCHMARK(BM_ColdTwoStreamRead)->UseRealTime();

void BM_StagedCopyRecomputedCrc(benchmark::State& state) {
  const auto src = filled_container();
  for (auto _ : state) {
    Container dst(2, 4 * 1024 * 1024 + 64 * 1024);
    for (const auto& [fp, entry] : src.entries()) {
      dst.add(fp, *src.read(fp));
    }
    benchmark::DoNotOptimize(dst.chunk_count());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kChunks * kChunkBytes));
}
BENCHMARK(BM_StagedCopyRecomputedCrc);

}  // namespace

// Custom main so the result JSON carries this binary's own build type
// (context key "build_type"). The stock "library_build_type" key describes
// the prebuilt benchmark library, which stays "debug" on distro packages
// even when this code is -O2 — tools/bench_gate.py prefers our key and
// softens comparisons involving debug builds.
int main(int argc, char** argv) {
#ifdef HDS_BENCH_BUILD_TYPE
  benchmark::AddCustomContext("build_type", HDS_BENCH_BUILD_TYPE);
#endif
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
