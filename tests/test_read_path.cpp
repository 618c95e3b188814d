// Tests for the restore read path (DESIGN.md §13): FileContainerStore's
// blocking pread loop heals injected short reads and EINTRs, turns a
// CrashInjector device failure into a bounded read error, and keeps
// per-stream ReadMeter accounting exact under concurrent restore streams,
// with and without ReadAheadFetcher prefetch workers.
// Runs under TSan via the `concurrency` label.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "restore/read_ahead.h"
#include "storage/container_store.h"
#include "storage/durable.h"

#include "util/temp_dir.h"

namespace hds {
namespace {

Container make_container(std::uint64_t seed, std::size_t chunks = 8) {
  Container c(0, 256 * 1024);
  Xoshiro256ss rng(seed);
  for (std::size_t i = 0; i < chunks; ++i) {
    std::vector<std::uint8_t> data(2048 + rng.next_below(4096));
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
    c.add(Fingerprint::from_seed(seed * 100 + i), data);
  }
  return c;
}

// Six 8-chunk containers on disk plus the reference bytes of every chunk.
class ReadPath : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = hds::testutil::unique_path("hds_read_path");
    std::filesystem::remove_all(dir_);
    FileContainerStore seed(dir_);
    for (std::uint64_t s = 1; s <= 6; ++s) {
      const auto id = seed.write(make_container(s));
      const auto got = seed.read(id);
      ASSERT_NE(got, nullptr);
      for (std::size_t i = 0; i < 8; ++i) {
        const auto fp = Fingerprint::from_seed(s * 100 + i);
        const auto bytes = got->read(fp);
        ASSERT_TRUE(bytes.has_value());
        reference_[id][fp].assign(bytes->begin(), bytes->end());
      }
      ids_.push_back(id);
    }
  }
  void TearDown() override {
    // A failed assertion must not leave faults armed for the next test.
    clear_fault_plan();
    durable::CrashInjector::disarm();
    std::filesystem::remove_all(dir_);
  }

  // A store over the fixture's containers whose every read reaches the
  // device (block cache off).
  [[nodiscard]] std::unique_ptr<FileContainerStore> uncached_store() const {
    FileStoreTuning tuning;
    tuning.block_cache_bytes = 0;
    return std::make_unique<FileContainerStore>(dir_, /*index_existing=*/true,
                                                tuning);
  }

  // True when `container` holds `fp` with exactly the reference bytes.
  [[nodiscard]] bool matches(const Container& container, ContainerId id,
                             const Fingerprint& fp) const {
    const auto read = container.read(fp);
    if (!read.has_value()) return false;
    const auto& bytes = reference_.at(id).at(fp);
    return std::equal(bytes.begin(), bytes.end(), read->begin(), read->end());
  }

  std::filesystem::path dir_;
  std::vector<ContainerId> ids_;
  std::map<ContainerId, std::map<Fingerprint, std::vector<std::uint8_t>>>
      reference_;
};

TEST_F(ReadPath, InjectedShortReadsAndEintrHeal) {
  const auto store = uncached_store();
  set_fault_plan({/*short_read_every_n=*/2, /*eintr_every_n=*/3});
  // Full reads (one whole-file extent) and 3-chunk partial reads (header,
  // footer and extent preads) both go through the faulted loop.
  for (const auto id : ids_) {
    const auto full = store->read(id);
    ASSERT_NE(full, nullptr);
    std::vector<Fingerprint> subset;
    for (const auto& [fp, bytes] : reference_[id]) {
      EXPECT_TRUE(matches(*full, id, fp));
      if (subset.size() < 3) subset.push_back(fp);
    }
    const auto partial = store->read_chunks(id, subset);
    ASSERT_NE(partial, nullptr);
    for (const auto& fp : subset) EXPECT_TRUE(matches(*partial, id, fp));
  }
  clear_fault_plan();
  const auto io = store->io_stats();
  EXPECT_GT(io.short_retries, 0u);
  EXPECT_GT(io.eintr_retries, 0u);
  EXPECT_GT(io.partial_reads, 0u);
  EXPECT_EQ(io.read_errors, 0u);
}

TEST_F(ReadPath, CrashInjectorTurnsReadsIntoErrors) {
  const auto store = uncached_store();
  durable::CrashInjector::arm(1, durable::FaultMode::kFail);
  // The failed device read surfaces as the store's nullptr contract,
  // counted once and charged to nobody.
  EXPECT_EQ(store->read(ids_[0]), nullptr);
  durable::CrashInjector::disarm();
  EXPECT_EQ(store->io_stats().read_errors, 1u);
  EXPECT_EQ(store->stats().container_reads, 0u);
  // The device recovers: the same container reads fine afterwards.
  const auto got = store->read(ids_[0]);
  ASSERT_NE(got, nullptr);
  for (const auto& [fp, bytes] : reference_[ids_[0]]) {
    EXPECT_TRUE(matches(*got, ids_[0], fp));
  }
}

TEST_F(ReadPath, ReadMeterAttributesCallsToTheCaller) {
  FileContainerStore store(dir_, /*index_existing=*/true);
  ReadMeter a;
  ReadMeter b;
  ASSERT_NE(store.read(ids_[0], &a), nullptr);
  ASSERT_NE(store.read(ids_[1], &b), nullptr);
  ASSERT_NE(store.read(ids_[2], &b), nullptr);
  EXPECT_EQ(a.container_reads.load(), 1u);
  EXPECT_EQ(b.container_reads.load(), 2u);
  EXPECT_GT(a.bytes_read.load(), 0u);
  // Meters partition the store's global accounting exactly.
  EXPECT_EQ(a.container_reads.load() + b.container_reads.load(),
            store.stats().container_reads);
  EXPECT_EQ(a.bytes_read.load() + b.bytes_read.load(),
            store.stats().bytes_read);
}

// Two concurrent restore streams hammer one shared store: byte-identical
// results and exact per-stream accounting, with no cross-pollution between
// meters.
TEST_F(ReadPath, ConcurrentStreamsKeepPerStreamAccounting) {
  const auto store = uncached_store();
  constexpr int kRounds = 8;
  ReadMeter meters[2];
  std::atomic<int> failures{0};
  auto stream = [&](int which, bool reversed) {
    auto order = ids_;
    if (reversed) std::reverse(order.begin(), order.end());
    for (int round = 0; round < kRounds; ++round) {
      for (const auto id : order) {
        const auto got = store->read(id, &meters[which]);
        if (got == nullptr) {
          failures.fetch_add(1);
          continue;
        }
        for (const auto& [fp, bytes] : reference_.at(id)) {
          if (!matches(*got, id, fp)) failures.fetch_add(1);
        }
      }
    }
  };
  std::thread other(stream, 1, true);
  stream(0, false);
  other.join();
  EXPECT_EQ(failures.load(), 0);
  const auto per_stream = static_cast<std::uint64_t>(kRounds) * ids_.size();
  EXPECT_EQ(meters[0].container_reads.load(), per_stream);
  EXPECT_EQ(meters[1].container_reads.load(), per_stream);
  EXPECT_EQ(store->stats().container_reads, 2 * per_stream);
  EXPECT_EQ(meters[0].bytes_read.load(), meters[1].bytes_read.load());
}

// Two ReadAheadFetcher streams with overlapping prefetch workers against
// one store: the fetcher pipeline above the read loop must stay
// byte-correct and exactly-once under real thread interleavings.
TEST_F(ReadPath, ConcurrentPrefetchedStreamsStayExactlyOnce) {
  struct StoreFetcher final : ContainerFetcher {
    StoreFetcher(FileContainerStore& s, ReadMeter& m) : store(s), meter(m) {}
    std::shared_ptr<const Container> fetch(const ChunkLoc& loc) override {
      return store.read(loc.cid, &meter);
    }
    FileContainerStore& store;
    ReadMeter& meter;
  };
  const auto store = uncached_store();
  std::vector<ChunkLoc> locs;
  for (const auto id : ids_) {
    for (std::size_t i = 0; i < 8; ++i) {
      ChunkLoc loc;
      loc.fp = Fingerprint::from_seed(static_cast<std::uint64_t>(id) * 100 +
                                      i);
      loc.cid = id;
      locs.push_back(loc);
    }
  }
  ReadMeter meters[2];
  std::atomic<int> failures{0};
  std::atomic<std::uint64_t> wasted_total{0};
  auto stream = [&](int which) {
    StoreFetcher base(*store, meters[which]);
    ReadAheadConfig config;
    config.depth = 4;
    config.in_flight = 3;
    ReadAheadFetcher fetcher(base, locs, config);
    // One fetch per container run, like a policy whose cache holds the
    // current container across its chunks (the stream groups by cid).
    std::shared_ptr<const Container> current;
    ContainerId current_id = 0;
    for (const auto& loc : locs) {
      if (current == nullptr || loc.cid != current_id) {
        current = fetcher.fetch(loc);
        current_id = loc.cid;
      }
      if (current == nullptr || !current->contains(loc.fp)) {
        failures.fetch_add(1);
      }
    }
    fetcher.stop();
    // This stream's meter charges it for exactly its consumed containers
    // plus its own wasted prefetches (reads the prefetcher issued after the
    // consumer had already passed that point) — subtracting waste recovers
    // the serial run's count, with no cross-pollution from the other
    // stream.
    EXPECT_EQ(fetcher.prefetch_hits() + fetcher.prefetch_misses(),
              ids_.size());
    EXPECT_EQ(meters[which].container_reads.load(),
              ids_.size() + fetcher.wasted_reads());
    wasted_total.fetch_add(fetcher.wasted_reads());
  };
  std::thread other(stream, 1);
  stream(0);
  other.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(store->stats().container_reads,
            2 * ids_.size() + wasted_total.load());
  EXPECT_EQ(meters[0].container_reads.load() +
                meters[1].container_reads.load(),
            store->stats().container_reads);
}

}  // namespace
}  // namespace hds
