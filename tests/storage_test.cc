// Tests for the storage substrate: RowBuffer codec, MVCC versioned
// records, tables, the lock manager and the storage engine.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "common/random.h"
#include "storage/lock_manager.h"
#include "storage/record.h"
#include "storage/row_buffer.h"
#include "storage/storage_engine.h"
#include "storage/table.h"

namespace dynamast::storage {
namespace {

VersionVector Vv(std::vector<uint64_t> v) { return VersionVector(std::move(v)); }

// ---- RowBuffer ----------------------------------------------------------

TEST(RowBufferTest, RoundTripAllTypes) {
  RowBuffer row;
  row.AddUint64(42);
  row.AddInt64(-7);
  row.AddDouble(3.25);
  row.AddString("hello");
  RowBuffer parsed;
  ASSERT_TRUE(RowBuffer::Parse(row.Encode(), &parsed).ok());
  ASSERT_EQ(parsed.NumFields(), 4u);
  EXPECT_EQ(parsed.GetUint64(0), 42u);
  EXPECT_EQ(parsed.GetInt64(1), -7);
  EXPECT_DOUBLE_EQ(parsed.GetDouble(2), 3.25);
  EXPECT_EQ(parsed.GetString(3), "hello");
}

TEST(RowBufferTest, EmptyRow) {
  RowBuffer row;
  RowBuffer parsed;
  ASSERT_TRUE(RowBuffer::Parse(row.Encode(), &parsed).ok());
  EXPECT_EQ(parsed.NumFields(), 0u);
}

TEST(RowBufferTest, Mutation) {
  RowBuffer row;
  row.AddUint64(1);
  row.AddDouble(1.0);
  row.AddString("a");
  row.SetUint64(0, 99);
  row.SetDouble(1, -2.5);
  row.SetString(2, "bb");
  RowBuffer parsed;
  ASSERT_TRUE(RowBuffer::Parse(row.Encode(), &parsed).ok());
  EXPECT_EQ(parsed.GetUint64(0), 99u);
  EXPECT_DOUBLE_EQ(parsed.GetDouble(1), -2.5);
  EXPECT_EQ(parsed.GetString(2), "bb");
}

TEST(RowBufferTest, RejectsTruncated) {
  RowBuffer row;
  row.AddString("payload");
  std::string encoded = row.Encode();
  RowBuffer parsed;
  for (size_t cut = 0; cut < encoded.size(); ++cut) {
    EXPECT_TRUE(RowBuffer::Parse(encoded.substr(0, cut), &parsed)
                    .IsCorruption())
        << "cut at " << cut;
  }
}

TEST(RowBufferTest, RejectsTrailingBytes) {
  RowBuffer row;
  row.AddUint64(1);
  std::string encoded = row.Encode() + "x";
  RowBuffer parsed;
  EXPECT_TRUE(RowBuffer::Parse(encoded, &parsed).IsCorruption());
}

TEST(RowBufferTest, RejectsBadTypeTag) {
  RowBuffer row;
  row.AddUint64(1);
  std::string encoded = row.Encode();
  encoded[4] = 9;  // type tag of field 0
  RowBuffer parsed;
  EXPECT_TRUE(RowBuffer::Parse(encoded, &parsed).IsCorruption());
}

// ---- VersionedRecord ----------------------------------------------------

TEST(VersionedRecordTest, InvisibleBeforeAnyVersion) {
  VersionedRecord record(4);
  std::string value;
  EXPECT_TRUE(record.ReadAtSnapshot(Vv({0, 0}), &value).IsNotFound());
}

TEST(VersionedRecordTest, VisibilityBySequence) {
  VersionedRecord record(4);
  record.Install(/*origin=*/0, /*seq=*/1, "v1");
  record.Install(0, 2, "v2");
  std::string value;
  ASSERT_TRUE(record.ReadAtSnapshot(Vv({1, 0}), &value).ok());
  EXPECT_EQ(value, "v1");
  ASSERT_TRUE(record.ReadAtSnapshot(Vv({2, 0}), &value).ok());
  EXPECT_EQ(value, "v2");
  EXPECT_TRUE(record.ReadAtSnapshot(Vv({0, 0}), &value).IsNotFound());
}

TEST(VersionedRecordTest, VisibilityAcrossOrigins) {
  VersionedRecord record(4);
  record.Install(0, 1, "from-site0");
  record.Install(1, 1, "from-site1");
  std::string value;
  // Snapshot sees only site 0's update.
  ASSERT_TRUE(record.ReadAtSnapshot(Vv({1, 0}), &value).ok());
  EXPECT_EQ(value, "from-site0");
  // Snapshot sees both: newest installed wins.
  ASSERT_TRUE(record.ReadAtSnapshot(Vv({1, 1}), &value).ok());
  EXPECT_EQ(value, "from-site1");
}

TEST(VersionedRecordTest, PruneKeepsNewest) {
  VersionedRecord record(2);
  record.Install(0, 1, "v1");
  record.Install(0, 2, "v2");
  record.Install(0, 3, "v3");
  EXPECT_EQ(record.NumVersions(), 2u);
  EXPECT_EQ(record.PrunedCount(), 1u);
  std::string value;
  ASSERT_TRUE(record.ReadAtSnapshot(Vv({3}), &value).ok());
  EXPECT_EQ(value, "v3");
}

TEST(VersionedRecordTest, SnapshotTooOldAfterPrune) {
  VersionedRecord record(2);
  record.Install(0, 1, "v1");
  record.Install(0, 2, "v2");
  record.Install(0, 3, "v3");
  std::string value;
  // Snapshot [1] could only see v1, which was pruned.
  EXPECT_TRUE(record.ReadAtSnapshot(Vv({1}), &value).IsSnapshotTooOld());
}

TEST(VersionedRecordTest, FourVersionsDefaultBehaviour) {
  // The paper's default of four retained versions (Section V-A1).
  VersionedRecord record(4);
  for (uint64_t seq = 1; seq <= 6; ++seq) {
    record.Install(0, seq, "v" + std::to_string(seq));
  }
  EXPECT_EQ(record.NumVersions(), 4u);
  std::string value;
  ASSERT_TRUE(record.ReadAtSnapshot(Vv({3}), &value).ok());
  EXPECT_EQ(value, "v3");
  EXPECT_TRUE(record.ReadAtSnapshot(Vv({2}), &value).IsSnapshotTooOld());
}

TEST(VersionedRecordTest, ReadLatest) {
  VersionedRecord record(4);
  std::string scratch;
  EXPECT_TRUE(record.ReadLatest(&scratch).IsNotFound());
  record.Install(0, 1, "a");
  record.Install(1, 1, "b");
  std::string value;
  ASSERT_TRUE(record.ReadLatest(&value).ok());
  EXPECT_EQ(value, "b");
}

TEST(VersionedRecordTest, RingWrapsAroundForThreeLaps) {
  // Every install past capacity overwrites the oldest slot; after each
  // one the whole retained window reads at its own snapshot and the
  // version it evicted is gone.
  for (const size_t capacity : {size_t{2}, size_t{4}}) {
    SCOPED_TRACE("capacity " + std::to_string(capacity));
    VersionedRecord record(capacity);
    const uint64_t installs = 3 * capacity + 1;
    for (uint64_t seq = 1; seq <= installs; ++seq) {
      InstallStats stats;
      record.Install(0, seq, "v" + std::to_string(seq), &stats);
      const uint64_t retained = std::min<uint64_t>(seq, capacity);
      EXPECT_EQ(stats.chain_len, retained);
      EXPECT_EQ(stats.pruned, seq > capacity);
      EXPECT_EQ(record.NumVersions(), retained);
      EXPECT_EQ(record.PrunedCount(), seq - retained);
      std::string value;
      for (uint64_t kept = seq - retained + 1; kept <= seq; ++kept) {
        ASSERT_TRUE(record.ReadAtSnapshot(Vv({kept}), &value).ok())
            << "after install " << seq << ", snapshot " << kept;
        EXPECT_EQ(value, "v" + std::to_string(kept));
      }
      if (seq > capacity) {
        EXPECT_TRUE(record.ReadAtSnapshot(Vv({seq - capacity}), &value)
                        .IsSnapshotTooOld())
            << "after install " << seq;
      }
      ASSERT_TRUE(record.ReadLatest(&value).ok());
      EXPECT_EQ(value, "v" + std::to_string(seq));
    }
  }
}

// The ring has kMaxVersions slots; asking for more is a programming error.
TEST(VersionedRecordDeathTest, CapacityAboveRingAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(VersionedRecord record(VersionedRecord::kMaxVersions + 1),
               "record capacity 5");
}

// ---- Table ---------------------------------------------------------------

TEST(TableTest, InstallAndRead) {
  Table table(/*id=*/3, /*max_versions=*/4);
  table.Install(10, 0, 1, "x");
  std::string value;
  ASSERT_TRUE(table.Read(10, Vv({1}), &value).ok());
  EXPECT_EQ(value, "x");
  EXPECT_TRUE(table.Read(11, Vv({1}), &value).IsNotFound());
  EXPECT_TRUE(table.Contains(10));
  EXPECT_FALSE(table.Contains(11));
  EXPECT_EQ(table.NumRows(), 1u);
}

TEST(TableTest, ManyRowsAcrossShards) {
  Table table(0, 4);
  for (uint64_t row = 0; row < 1000; ++row) {
    table.Install(row, 0, 0, std::to_string(row));
  }
  EXPECT_EQ(table.NumRows(), 1000u);
  std::string value;
  for (uint64_t row = 0; row < 1000; row += 37) {
    ASSERT_TRUE(table.Read(row, Vv({0}), &value).ok());
    EXPECT_EQ(value, std::to_string(row));
  }
}

TEST(TableTest, ConcurrentInstallsDistinctRows) {
  Table table(0, 4);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&table, t] {
      for (uint64_t i = 0; i < 500; ++i) {
        table.Install(t * 1000 + i, 0, 0, "v");
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(table.NumRows(), 2000u);
}

// Installs `rows` into a fresh table, then checks every row reads back and
// each neighbour (row +/- 1) is present exactly when it is one of `rows`.
void ExpectIndexHolds(std::vector<uint64_t> rows) {
  Table table(0, 4);
  for (const uint64_t row : rows) table.Install(row, 0, 0, std::to_string(row));
  std::sort(rows.begin(), rows.end());
  EXPECT_EQ(table.NumRows(), rows.size());
  std::string value;
  for (const uint64_t row : rows) {
    ASSERT_TRUE(table.Contains(row)) << row;
    ASSERT_TRUE(table.Read(row, Vv({0}), &value).ok()) << row;
    ASSERT_EQ(value, std::to_string(row));
    for (const uint64_t neighbour : {row - 1, row + 1}) {
      if (std::binary_search(rows.begin(), rows.end(), neighbour)) continue;
      ASSERT_FALSE(table.Contains(neighbour)) << neighbour;
      ASSERT_TRUE(table.Read(neighbour, Vv({0}), &value).IsNotFound())
          << neighbour;
    }
  }
}

TEST(TableTest, IndexGrowsOverDenseRows) {
  std::vector<uint64_t> rows;
  for (uint64_t row = 0; row < 100000; ++row) rows.push_back(row);
  ExpectIndexHolds(std::move(rows));
}

TEST(TableTest, IndexGrowsOverSparseTpccKeys) {
  // TPC-C-style composite keys: district, order and line packed into
  // disjoint bit ranges, so most of the key space is empty.
  std::vector<uint64_t> rows;
  for (uint64_t d = 1; d <= 10; ++d) {
    for (uint64_t o = 1; o <= 1000; ++o) {
      for (uint64_t line = 1; line <= 10; ++line) {
        rows.push_back((d << 40) | (o << 8) | line);
      }
    }
  }
  ExpectIndexHolds(std::move(rows));
}

TEST(TableTest, GrowthUnderConcurrentReaders) {
  // Readers drop the shard lock before touching a record, so a record
  // must not move while another thread's inserts grow its shard's index.
  constexpr uint64_t kPreloaded = 1000;
  constexpr uint64_t kInserted = 50000;
  Table table(0, 4);
  for (uint64_t row = 0; row < kPreloaded; ++row) {
    table.Install(row, 0, 0, std::to_string(row));
  }
  std::atomic<uint64_t> published{kPreloaded};
  std::atomic<bool> done{false};
  std::atomic<uint64_t> bad_reads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      Random rng(static_cast<uint64_t>(t) + 1);
      std::string value;
      while (!done.load(std::memory_order_acquire)) {
        const uint64_t row =
            rng.Uniform(published.load(std::memory_order_acquire));
        if (!table.Read(row, Vv({0}), &value).ok() ||
            value != std::to_string(row)) {
          bad_reads.fetch_add(1);
        }
      }
    });
  }
  for (uint64_t row = kPreloaded; row < kPreloaded + kInserted; ++row) {
    table.Install(row, 0, 0, std::to_string(row));
    published.store(row + 1, std::memory_order_release);
  }
  done.store(true, std::memory_order_release);
  for (auto& reader : readers) reader.join();
  EXPECT_EQ(bad_reads.load(), 0u);
  EXPECT_EQ(table.NumRows(), kPreloaded + kInserted);
}

// ---- LockManager ----------------------------------------------------------

TEST(LockManagerTest, BasicAcquireRelease) {
  LockManager locks;
  const RecordKey key{0, 1};
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(100);
  ASSERT_TRUE(locks.Acquire(key, 1, deadline).ok());
  EXPECT_TRUE(locks.Holds(key, 1));
  EXPECT_FALSE(locks.Holds(key, 2));
  locks.Release(key, 1);
  EXPECT_FALSE(locks.Holds(key, 1));
}

TEST(LockManagerTest, Reentrant) {
  LockManager locks;
  const RecordKey key{0, 1};
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(100);
  ASSERT_TRUE(locks.Acquire(key, 1, deadline).ok());
  ASSERT_TRUE(locks.Acquire(key, 1, deadline).ok());
  locks.Release(key, 1);
  EXPECT_FALSE(locks.Holds(key, 1));
}

TEST(LockManagerTest, ConflictTimesOut) {
  LockManager locks;
  const RecordKey key{0, 1};
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(50);
  ASSERT_TRUE(locks.Acquire(key, 1, deadline).ok());
  EXPECT_TRUE(locks
                  .Acquire(key, 2,
                           std::chrono::steady_clock::now() +
                               std::chrono::milliseconds(50))
                  .IsTimedOut());
}

TEST(LockManagerTest, ReleaseWakesWaiter) {
  LockManager locks;
  const RecordKey key{0, 1};
  ASSERT_TRUE(locks
                  .Acquire(key, 1,
                           std::chrono::steady_clock::now() +
                               std::chrono::milliseconds(100))
                  .ok());
  std::atomic<bool> acquired{false};
  std::thread waiter([&] {
    Status s = locks.Acquire(key, 2, std::chrono::steady_clock::now() +
                                          std::chrono::seconds(5));
    acquired.store(s.ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  locks.Release(key, 1);
  waiter.join();
  EXPECT_TRUE(acquired.load());
  EXPECT_TRUE(locks.Holds(key, 2));
}

TEST(LockManagerTest, AcquireAllRollsBackOnTimeout) {
  LockManager locks;
  const RecordKey held{0, 5};
  ASSERT_TRUE(locks
                  .Acquire(held, 99,
                           std::chrono::steady_clock::now() +
                               std::chrono::milliseconds(100))
                  .ok());
  std::vector<RecordKey> keys = {{0, 1}, {0, 5}, {0, 9}};
  Status s = locks.AcquireAll(keys, 1,
                              std::chrono::steady_clock::now() +
                                  std::chrono::milliseconds(50));
  EXPECT_TRUE(s.IsTimedOut());
  // Locks acquired before the conflict must have been rolled back.
  EXPECT_FALSE(locks.Holds(RecordKey{0, 1}, 1));
  EXPECT_FALSE(locks.Holds(RecordKey{0, 9}, 1));
  EXPECT_EQ(locks.NumHeldLocks(), 1u);
}

TEST(LockManagerTest, AcquireAllDeduplicates) {
  LockManager locks;
  std::vector<RecordKey> keys = {{0, 1}, {0, 1}, {0, 2}};
  ASSERT_TRUE(locks
                  .AcquireAll(keys, 1,
                              std::chrono::steady_clock::now() +
                                  std::chrono::milliseconds(100))
                  .ok());
  EXPECT_EQ(locks.NumHeldLocks(), 2u);
  locks.ReleaseAll({{0, 1}, {0, 2}}, 1);
  EXPECT_EQ(locks.NumHeldLocks(), 0u);
}

TEST(LockManagerTest, MutualExclusionUnderContention) {
  LockManager locks;
  const RecordKey key{0, 7};
  std::atomic<int> in_critical{0};
  std::atomic<int> max_seen{0};
  std::atomic<int> completed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 50; ++i) {
        const TxnId txn = static_cast<TxnId>(t) * 1000 + i + 1;
        Status s = locks.Acquire(key, txn, std::chrono::steady_clock::now() +
                                                std::chrono::seconds(10));
        ASSERT_TRUE(s.ok());
        const int now = in_critical.fetch_add(1) + 1;
        int expected_max = max_seen.load();
        while (now > expected_max &&
               !max_seen.compare_exchange_weak(expected_max, now)) {
        }
        in_critical.fetch_sub(1);
        locks.Release(key, txn);
        completed.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(max_seen.load(), 1);
  EXPECT_EQ(completed.load(), 400);
}

// ---- StorageEngine ---------------------------------------------------------

TEST(StorageEngineTest, CreateTableOnce) {
  StorageEngine engine;
  EXPECT_TRUE(engine.CreateTable(1).ok());
  EXPECT_TRUE(engine.CreateTable(1).IsAlreadyExists());
  EXPECT_NE(engine.GetTable(1), nullptr);
  EXPECT_EQ(engine.GetTable(2), nullptr);
}

TEST(StorageEngineTest, InstallReadRoundTrip) {
  StorageEngine engine;
  ASSERT_TRUE(engine.CreateTable(1).ok());
  const RecordKey key{1, 77};
  ASSERT_TRUE(engine.Install(key, 0, 1, "payload").ok());
  std::string value;
  ASSERT_TRUE(engine.Read(key, Vv({1}), &value).ok());
  EXPECT_EQ(value, "payload");
  EXPECT_TRUE(engine.Contains(key));
  EXPECT_EQ(engine.TotalRows(), 1u);
}

TEST(StorageEngineTest, UnknownTableRejected) {
  StorageEngine engine;
  std::string value;
  EXPECT_TRUE(engine.Install(RecordKey{9, 1}, 0, 1, "x").IsInvalidArgument());
  EXPECT_TRUE(engine.Read(RecordKey{9, 1}, Vv({1}), &value)
                  .IsInvalidArgument());
}

TEST(StorageEngineTest, RetainsFourVersionsPerRecord) {
  StorageEngine engine;
  ASSERT_TRUE(engine.CreateTable(1).ok());
  const RecordKey key{1, 1};
  for (uint64_t seq = 1; seq <= 5; ++seq) {
    ASSERT_TRUE(engine.Install(key, 0, seq, "v" + std::to_string(seq)).ok());
  }
  std::string value;
  // The fifth install pruned v1; v2..v5 are retained.
  EXPECT_TRUE(engine.Read(key, Vv({1}), &value).IsSnapshotTooOld());
  ASSERT_TRUE(engine.Read(key, Vv({2}), &value).ok());
  EXPECT_EQ(value, "v2");
}

}  // namespace
}  // namespace dynamast::storage
