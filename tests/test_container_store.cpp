// Tests for ContainerStore backends: I/O accounting, ID reservation, erase
// semantics, and the file backend's on-disk round trip.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "common/rng.h"
#include "storage/container_store.h"

#include "util/temp_dir.h"

namespace hds {
namespace {

Container make_container(std::uint64_t seed, std::size_t chunks = 4) {
  Container c(0, 64 * 1024);
  Xoshiro256ss rng(seed);
  for (std::size_t i = 0; i < chunks; ++i) {
    std::vector<std::uint8_t> data(512 + rng.next_below(1024));
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
    c.add(Fingerprint::from_seed(seed * 100 + i), data);
  }
  return c;
}

template <typename T>
std::unique_ptr<ContainerStore> make_store();

template <>
std::unique_ptr<ContainerStore> make_store<MemoryContainerStore>() {
  return std::make_unique<MemoryContainerStore>();
}

template <>
std::unique_ptr<ContainerStore> make_store<FileContainerStore>() {
  // The pid keeps concurrent ctest workers (each a fresh process whose
  // counter restarts at 0) out of each other's directories.
  static int counter = 0;
  const auto dir =
      std::filesystem::temp_directory_path() /
      ("hds_store_test_" + std::to_string(::getpid()) + "_" +
       std::to_string(counter++));
  std::filesystem::remove_all(dir);
  return std::make_unique<FileContainerStore>(dir);
}

template <typename T>
class ContainerStoreTest : public ::testing::Test {
 protected:
  std::unique_ptr<ContainerStore> store_ = make_store<T>();
};

using Backends = ::testing::Types<MemoryContainerStore, FileContainerStore>;
TYPED_TEST_SUITE(ContainerStoreTest, Backends);

TYPED_TEST(ContainerStoreTest, WriteAssignsSequentialPositiveIds) {
  const auto a = this->store_->write(make_container(1));
  const auto b = this->store_->write(make_container(2));
  EXPECT_GT(a, 0);
  EXPECT_EQ(b, a + 1);
  EXPECT_EQ(this->store_->container_count(), 2u);
}

TYPED_TEST(ContainerStoreTest, ReadBackMatchesWritten) {
  const auto original = make_container(3);
  const auto fp = Fingerprint::from_seed(300);
  const auto expected = *original.read(fp);
  std::vector<std::uint8_t> expect_copy(expected.begin(), expected.end());

  const auto id = this->store_->write(make_container(3));
  const auto back = this->store_->read(id);
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(back->id(), id);
  const auto read = back->read(fp);
  ASSERT_TRUE(read.has_value());
  EXPECT_TRUE(std::equal(read->begin(), read->end(), expect_copy.begin()));
}

TYPED_TEST(ContainerStoreTest, ReadsAndWritesAreCounted) {
  const auto id = this->store_->write(make_container(4));
  EXPECT_EQ(this->store_->stats().container_writes, 1u);
  EXPECT_EQ(this->store_->stats().container_reads, 0u);
  (void)this->store_->read(id);
  (void)this->store_->read(id);
  EXPECT_EQ(this->store_->stats().container_reads, 2u);
  EXPECT_GT(this->store_->stats().bytes_written, 0u);
  EXPECT_GT(this->store_->stats().bytes_read, 0u);
}

TYPED_TEST(ContainerStoreTest, MissingReadReturnsNullAndIsNotCounted) {
  EXPECT_EQ(this->store_->read(999), nullptr);
  EXPECT_EQ(this->store_->stats().container_reads, 0u);
}

TYPED_TEST(ContainerStoreTest, EraseRemovesContainer) {
  const auto id = this->store_->write(make_container(5));
  EXPECT_TRUE(this->store_->erase(id));
  EXPECT_EQ(this->store_->read(id), nullptr);
  EXPECT_FALSE(this->store_->erase(id));
  EXPECT_EQ(this->store_->container_count(), 0u);
}

TYPED_TEST(ContainerStoreTest, ReserveThenPut) {
  const auto id = this->store_->reserve_id();
  auto c = make_container(6);
  c.set_id(id);
  this->store_->put(std::move(c));
  // The next write must not reuse the reserved ID.
  const auto next = this->store_->write(make_container(7));
  EXPECT_GT(next, id);
  EXPECT_NE(this->store_->read(id), nullptr);
}

TYPED_TEST(ContainerStoreTest, IdsListsAllLiveContainers) {
  const auto a = this->store_->write(make_container(8));
  const auto b = this->store_->write(make_container(9));
  this->store_->erase(a);
  const auto ids = this->store_->ids();
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_EQ(ids[0], b);
}

TYPED_TEST(ContainerStoreTest, ResetStatsClearsCounters) {
  const auto id = this->store_->write(make_container(10));
  (void)this->store_->read(id);
  this->store_->reset_stats();
  EXPECT_EQ(this->store_->stats().container_reads, 0u);
  EXPECT_EQ(this->store_->stats().container_writes, 0u);
}

TYPED_TEST(ContainerStoreTest, ReadChunksReturnsRequestedChunks) {
  const auto original = make_container(12, 6);
  const auto id = this->store_->write(make_container(12, 6));
  const Fingerprint wanted[] = {Fingerprint::from_seed(1201),
                                Fingerprint::from_seed(1204)};
  const auto got = this->store_->read_chunks(id, wanted);
  ASSERT_NE(got, nullptr);
  for (const auto& fp : wanted) {
    const auto read = got->read(fp);
    ASSERT_TRUE(read.has_value());
    const auto expect = *original.read(fp);
    ASSERT_EQ(read->size(), expect.size());
    EXPECT_TRUE(std::equal(read->begin(), read->end(), expect.begin()));
  }
  // §5.3 accounting: one container read, charged at the FULL logical size
  // regardless of how many bytes actually moved.
  EXPECT_EQ(this->store_->stats().container_reads, 1u);
  EXPECT_EQ(this->store_->stats().bytes_read, original.data_size());
}

TYPED_TEST(ContainerStoreTest, ReadChunksOfMissingContainerIsNull) {
  const Fingerprint fp[] = {Fingerprint::from_seed(1)};
  EXPECT_EQ(this->store_->read_chunks(404, fp), nullptr);
  EXPECT_EQ(this->store_->stats().container_reads, 0u);
}

TEST(MemoryContainerStore, PhysicalBytesEqualLogicalBytes) {
  MemoryContainerStore store;
  const auto id = store.write(make_container(13));
  (void)store.read(id);
  const Fingerprint fp[] = {Fingerprint::from_seed(1301)};
  (void)store.read_chunks(id, fp);
  EXPECT_GT(store.stats().bytes_read, 0u);
  EXPECT_EQ(store.stats().bytes_read_physical.load(),
            store.stats().bytes_read.load());
}

namespace {
std::filesystem::path fresh_dir(const char* name) {
  const auto dir = hds::testutil::unique_path(name);
  std::filesystem::remove_all(dir);
  return dir;
}
}  // namespace

TEST(FileContainerStore, PartialReadTransfersFewerPhysicalBytes) {
  FileStoreTuning tuning;
  tuning.block_cache_bytes = 0;  // every read must hit the device
  FileContainerStore store(fresh_dir("hds_store_partial"), false, tuning);
  const auto original = make_container(14, 16);
  const auto id = store.write(make_container(14, 16));

  const Fingerprint wanted[] = {Fingerprint::from_seed(1403)};
  const auto got = store.read_chunks(id, wanted);
  ASSERT_NE(got, nullptr);
  const auto read = got->read(wanted[0]);
  ASSERT_TRUE(read.has_value());
  const auto expect = *original.read(wanted[0]);
  EXPECT_TRUE(std::equal(read->begin(), read->end(), expect.begin()));

  EXPECT_EQ(store.io_stats().partial_reads, 1u);
  EXPECT_EQ(store.stats().bytes_read, original.data_size());
  EXPECT_GT(store.stats().bytes_read_physical, 0u);
  EXPECT_LT(store.stats().bytes_read_physical.load(),
            store.stats().bytes_read.load());
}

TEST(FileContainerStore, DisablingPartialReadsFallsBackToSlurp) {
  FileStoreTuning tuning;
  tuning.partial_reads = false;
  tuning.block_cache_bytes = 0;
  FileContainerStore store(fresh_dir("hds_store_noslice"), false, tuning);
  const auto id = store.write(make_container(15, 8));
  const Fingerprint wanted[] = {Fingerprint::from_seed(1502)};
  const auto got = store.read_chunks(id, wanted);
  ASSERT_NE(got, nullptr);
  EXPECT_TRUE(got->read(wanted[0]).has_value());
  EXPECT_EQ(store.io_stats().partial_reads, 0u);
  // The slurp moves the whole file — header/table/CRC overhead included —
  // so the device sees MORE than the logical data size.
  EXPECT_GT(store.stats().bytes_read_physical.load(),
            store.stats().bytes_read.load());
}

TEST(FileContainerStore, BlockCacheHitCostsNoPhysicalBytes) {
  FileContainerStore store(fresh_dir("hds_store_cachehit"));
  const auto id = store.write(make_container(16, 8));

  ASSERT_NE(store.read(id), nullptr);
  const auto after_first = store.stats().bytes_read_physical.load();
  EXPECT_GT(after_first, 0u);

  ASSERT_NE(store.read(id), nullptr);
  // Second read is served from the block cache: still a counted container
  // read at full logical size, but zero new device bytes.
  EXPECT_EQ(store.stats().container_reads, 2u);
  EXPECT_EQ(store.stats().bytes_read_physical, after_first);
  EXPECT_EQ(store.io_stats().block_cache_hits, 1u);
}

TEST(FileContainerStore, WriteInvalidatesCachesBeforeNextRead) {
  FileContainerStore store(fresh_dir("hds_store_inval"));
  auto first = make_container(17, 4);
  const auto id = store.write(std::move(first));
  ASSERT_NE(store.read(id), nullptr);  // populates fd + block caches

  // Rewrite the container under the same ID with different content.
  auto second = make_container(18, 4);
  second.set_id(id);
  store.put(std::move(second));

  const auto back = store.read(id);
  ASSERT_NE(back, nullptr);
  EXPECT_TRUE(back->read(Fingerprint::from_seed(1800)).has_value());
  EXPECT_FALSE(back->read(Fingerprint::from_seed(1700)).has_value());
}

TEST(FileContainerStore, LegacyFormat2FileReadsViaSlurp) {
  const auto dir = fresh_dir("hds_store_legacy");
  std::filesystem::create_directories(dir);
  Container legacy(3, 64 * 1024);
  Xoshiro256ss rng(19);
  std::vector<std::uint8_t> data(2048);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
  ASSERT_TRUE(legacy.add(Fingerprint::from_seed(1900), data));
  {
    const auto blob = legacy.serialize_legacy();
    std::ofstream out(dir / "container_3.hdsc", std::ios::binary);
    out.write(reinterpret_cast<const char*>(blob.data()),
              static_cast<std::streamsize>(blob.size()));
  }
  FileContainerStore store(dir, /*index_existing=*/true);
  const Fingerprint wanted[] = {Fingerprint::from_seed(1900)};
  const auto got = store.read_chunks(store.ids().at(0), wanted);
  ASSERT_NE(got, nullptr);
  const auto read = got->read(wanted[0]);
  ASSERT_TRUE(read.has_value());
  EXPECT_TRUE(std::equal(read->begin(), read->end(), data.begin()));
  EXPECT_EQ(store.io_stats().partial_reads, 0u);  // no footer index to use
}

TEST(FileContainerStore, ParsesOnlyCanonicalContainerFileNames) {
  EXPECT_EQ(FileContainerStore::parse_file_name("container_1.hdsc"), 1);
  EXPECT_EQ(FileContainerStore::parse_file_name("container_42.hdsc"), 42);
  for (const char* stray :
       {"container_12.tmp", "container_5", "container_.hdsc",
        "container_0.hdsc", "container_-4.hdsc", "container_+4.hdsc",
        "container_007.hdsc", "container_9x.hdsc", "container_4.hdsc.tmp",
        "container_99999999999.hdsc", "xcontainer_4.hdsc", "state.hds"}) {
    EXPECT_EQ(FileContainerStore::parse_file_name(stray), std::nullopt)
        << stray;
  }
}

TEST(FileContainerStore, StrayFilesAreNotIndexedAndKeepNextId) {
  const auto dir = fresh_dir("hds_store_stray");
  {
    FileContainerStore store(dir);
    ASSERT_EQ(store.write(make_container(21)), 1);
    ASSERT_EQ(store.write(make_container(22)), 2);
  }
  // Names an older parser took for containers 1 and 5, plus high-numbered
  // look-alikes that would have pushed the ID counter forward.
  for (const char* stray :
       {"container_12.tmp", "container_5", "container_900.hdsc.tmp",
        "container_0900.hdsc", "container_77x.hdsc"}) {
    std::ofstream(dir / stray) << "not a container";
  }
  FileContainerStore store(dir, /*index_existing=*/true);
  auto ids = store.ids();
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<ContainerId>{1, 2}));
  EXPECT_EQ(store.container_count(), 2u);
  EXPECT_EQ(store.next_id(), 3);
  EXPECT_NE(store.read(1), nullptr);
  EXPECT_EQ(store.read(5), nullptr);
}

TEST(FileContainerStore, PersistsSerializedFormOnDisk) {
  const auto dir =
      hds::testutil::unique_path("hds_store_disk_check");
  std::filesystem::remove_all(dir);
  FileContainerStore store(dir);
  const auto id = store.write(make_container(11));
  // Exactly one container file, parseable by Container::deserialize.
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    ++files;
    EXPECT_GT(entry.file_size(), 0u);
  }
  EXPECT_EQ(files, 1u);
  EXPECT_NE(store.read(id), nullptr);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace hds
