// Micro-benchmarks: container and recipe operations — the storage layer's
// per-container costs (fill, serialize, deserialize, store round trips) —
// and the CRC-32 every stored, committed and restored byte passes through.
#include <benchmark/benchmark.h>

#include "common/crc32.h"
#include "common/rng.h"
#include "storage/container_store.h"
#include "storage/recipe.h"

namespace {

using namespace hds;

Container filled_container(std::size_t chunks = 1000) {
  Container c(1, 4 * 1024 * 1024);
  for (std::size_t i = 0; i < chunks; ++i) {
    std::vector<std::uint8_t> data(4096);
    generate_chunk_content(i, 4096, data.data());
    c.add(Fingerprint::from_seed(i), data);
  }
  return c;
}

// The dispatched crc32(): PCLMUL folding where the CPU has it. 4 KiB is a
// typical chunk, 1 MiB a container or state-file stretch.
void BM_Crc32(benchmark::State& state) {
  std::vector<std::uint8_t> data(static_cast<std::size_t>(state.range(0)));
  Xoshiro256ss rng(1);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(4 * 1024)->Arg(64 * 1024)->Arg(1024 * 1024);

void BM_ContainerFill(benchmark::State& state) {
  std::vector<std::vector<std::uint8_t>> payloads;
  for (std::size_t i = 0; i < 1000; ++i) {
    payloads.emplace_back(4096);
    generate_chunk_content(i, 4096, payloads.back().data());
  }
  for (auto _ : state) {
    Container c(1, 4 * 1024 * 1024);
    for (std::size_t i = 0; i < payloads.size(); ++i) {
      c.add(Fingerprint::from_seed(i), payloads[i]);
    }
    benchmark::DoNotOptimize(c.chunk_count());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          1000 * 4096);
}
BENCHMARK(BM_ContainerFill);

void BM_ContainerSerialize(benchmark::State& state) {
  const auto c = filled_container();
  for (auto _ : state) {
    benchmark::DoNotOptimize(c.serialize());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(c.data_size()));
}
BENCHMARK(BM_ContainerSerialize);

void BM_ContainerDeserialize(benchmark::State& state) {
  const auto blob = filled_container().serialize();
  for (auto _ : state) {
    benchmark::DoNotOptimize(Container::deserialize(blob));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(blob.size()));
}
BENCHMARK(BM_ContainerDeserialize);

void BM_ContainerChunkRead(benchmark::State& state) {
  const auto c = filled_container();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(c.read(Fingerprint::from_seed(i % 1000)));
    ++i;
  }
}
BENCHMARK(BM_ContainerChunkRead);

void BM_RecipeSerialize(benchmark::State& state) {
  Recipe r(1);
  for (std::size_t i = 0; i < 10000; ++i) {
    r.add(Fingerprint::from_seed(i), static_cast<ContainerId>(i % 100) + 1,
          4096);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(r.serialize());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          10000);
}
BENCHMARK(BM_RecipeSerialize);

void BM_MemoryStoreRoundTrip(benchmark::State& state) {
  for (auto _ : state) {
    MemoryContainerStore store;
    const auto id = store.write(filled_container(100));
    benchmark::DoNotOptimize(store.read(id));
  }
}
BENCHMARK(BM_MemoryStoreRoundTrip);

}  // namespace

// Custom main: stamp the binary's own build type into the result JSON so
// tools/bench_gate.py can tell an -O2 run from a debug one (see
// micro_io.cpp for the full rationale).
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
