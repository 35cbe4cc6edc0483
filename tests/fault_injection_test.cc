// Fault-injecting disk: transient errors, fail-stop crashes, torn writes,
// bit flips, fault counters, saturating stats subtraction, and checksum
// detection of corruption through the buffer pool.

#include <gtest/gtest.h>

#include <random>

#include "storage/buffer_pool.h"
#include "storage/checksum.h"
#include "storage/fault_policy.h"
#include "storage/record_store.h"
#include "storage/simulated_disk.h"

namespace cactis::storage {
namespace {

TEST(ChecksumTest, RoundTripAndDetection) {
  std::string framed = WrapWithChecksum("hello blocks");
  auto payload = UnwrapChecksum(framed);
  ASSERT_TRUE(payload.ok());
  EXPECT_EQ(*payload, "hello blocks");

  // Any bit flip is caught.
  framed[6] ^= 0x40;
  EXPECT_TRUE(UnwrapChecksum(framed).status().IsCorruption());

  // A frame shorter than the checksum itself is corrupt, not empty.
  EXPECT_TRUE(UnwrapChecksum("ab").status().IsCorruption());
  // A never-written block reads back as an empty payload.
  auto empty = UnwrapChecksum("");
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

// The textbook bit-at-a-time CRC-32, the reference Crc32 must match.
uint32_t BitwiseCrc32(std::string_view data) {
  uint32_t c = 0xFFFFFFFFu;
  for (unsigned char byte : data) {
    c ^= byte;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(ChecksumTest, Crc32StandardCheckValue) {
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
}

TEST(ChecksumTest, Crc32MatchesBitwiseReferenceAtAnyLengthAndOffset) {
  std::mt19937 rng(12345);
  std::string buf(5000 + 8, '\0');
  for (char& ch : buf) ch = static_cast<char>(rng());
  for (int trial = 0; trial < 400; ++trial) {
    const size_t offset = rng() % 8;  // unaligned starts
    const size_t len = trial < 17 ? trial : rng() % 5001;
    std::string_view slice(buf.data() + offset, len);
    ASSERT_EQ(Crc32(slice), BitwiseCrc32(slice))
        << "length " << len << " offset " << offset;
  }
}

TEST(FaultInjectionTest, TransientWriteErrorIsRetriable) {
  SimulatedDisk disk(128);
  ScriptedFaults faults;
  faults.transient_write_error_at = 1;  // the second write hiccups
  disk.set_fault_policy(&faults);

  BlockId block = disk.Allocate();
  ASSERT_TRUE(disk.Write(block, "first").ok());
  Status s = disk.Write(block, "second");
  EXPECT_TRUE(s.IsUnavailable());
  EXPECT_FALSE(disk.crashed());
  EXPECT_EQ(disk.stats().transient_errors, 1u);
  // The platter kept the pre-error content; a retry succeeds.
  EXPECT_EQ(*disk.PeekRaw(block), "first");
  EXPECT_TRUE(disk.Write(block, "second").ok());
  EXPECT_EQ(*disk.Read(block), "second");
}

TEST(FaultInjectionTest, CrashIsFailStopButPlatterSurvives) {
  SimulatedDisk disk(128);
  BlockId block = disk.Allocate();
  ASSERT_TRUE(disk.Write(block, "durable").ok());

  ScriptedFaults faults;
  faults.crash_after_writes = 1;
  disk.set_fault_policy(&faults);
  EXPECT_TRUE(disk.Write(block, "lost").IsIoError());
  EXPECT_TRUE(disk.crashed());
  EXPECT_EQ(disk.stats().crashes, 1u);

  // Everything fails now...
  EXPECT_TRUE(disk.Read(block).status().IsIoError());
  EXPECT_TRUE(disk.Write(block, "x").IsIoError());
  EXPECT_TRUE(disk.Free(block).IsIoError());
  EXPECT_FALSE(disk.Allocate().valid());
  // ...except offline platter inspection, which sees the durable state.
  EXPECT_EQ(*disk.PeekRaw(block), "durable");
}

TEST(FaultInjectionTest, TornWritePersistsAPrefixThenCrashes) {
  SimulatedDisk disk(128);
  BlockId block = disk.Allocate();
  ScriptedFaults faults;
  faults.torn_write_at = 0;
  disk.set_fault_policy(&faults);

  EXPECT_TRUE(disk.Write(block, "0123456789").IsIoError());
  EXPECT_TRUE(disk.crashed());
  EXPECT_EQ(disk.stats().torn_writes, 1u);
  EXPECT_EQ(*disk.PeekRaw(block), "01234");  // half made it to the platter

  // A torn checksum-framed block fails verification afterwards.
  SimulatedDisk disk2(128);
  BlockId b2 = disk2.Allocate();
  ScriptedFaults faults2;
  faults2.torn_write_at = 0;
  disk2.set_fault_policy(&faults2);
  EXPECT_FALSE(disk2.Write(b2, WrapWithChecksum("torn payload data")).ok());
  EXPECT_TRUE(UnwrapChecksum(*disk2.PeekRaw(b2)).status().IsCorruption());
}

TEST(FaultInjectionTest, WriteBitFlipCorruptsThePlatterSilently) {
  SimulatedDisk disk(128);
  BlockId block = disk.Allocate();
  ScriptedFaults faults;
  faults.corrupt_write_at = 0;
  disk.set_fault_policy(&faults);

  ASSERT_TRUE(disk.Write(block, "pristine-content").ok());  // "succeeds"
  EXPECT_EQ(disk.stats().bit_flips, 1u);
  EXPECT_NE(*disk.PeekRaw(block), "pristine-content");
}

TEST(FaultInjectionTest, ReadFaultsLeaveThePlatterIntact) {
  SimulatedDisk disk(128);
  BlockId block = disk.Allocate();
  ASSERT_TRUE(disk.Write(block, "stable").ok());

  ScriptedFaults faults;
  faults.transient_read_error_at = 0;
  faults.corrupt_read_at = 1;
  disk.set_fault_policy(&faults);

  EXPECT_TRUE(disk.Read(block).status().IsUnavailable());  // transient
  auto corrupted = disk.Read(block);                   // bit flip in transit
  ASSERT_TRUE(corrupted.ok());
  EXPECT_NE(*corrupted, "stable");
  EXPECT_EQ(*disk.PeekRaw(block), "stable");  // at rest it is fine
  auto clean = disk.Read(block);
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(*clean, "stable");
}

TEST(FaultInjectionTest, DiskStatsSubtractionSaturates) {
  DiskStats a;
  a.reads = 5;
  a.writes = 2;
  a.transient_errors = 1;
  DiskStats b;
  b.reads = 3;
  b.writes = 7;  // larger than a.writes: must clamp, not wrap
  b.torn_writes = 2;
  b.bit_flips = 1;
  b.crashes = 1;

  DiskStats d = a - b;
  EXPECT_EQ(d.reads, 2u);
  EXPECT_EQ(d.writes, 0u);
  EXPECT_EQ(d.allocations, 0u);
  EXPECT_EQ(d.frees, 0u);
  EXPECT_EQ(d.transient_errors, 1u);
  EXPECT_EQ(d.torn_writes, 0u);
  EXPECT_EQ(d.bit_flips, 0u);
  EXPECT_EQ(d.crashes, 0u);
}

TEST(FaultInjectionTest, BufferPoolSurfacesChecksumMismatch) {
  SimulatedDisk disk(512);
  BlockId block;
  {
    // Write a block image through one pool...
    BufferPool pool(&disk, 4);
    RecordStore store(&disk, &pool);
    ASSERT_TRUE(store.Put(InstanceId(1), "record payload").ok());
    block = *store.BlockOf(InstanceId(1));
    ASSERT_TRUE(pool.FlushAll().ok());
  }
  // ...rot one bit at rest, then read it back through a fresh pool.
  ASSERT_TRUE(disk.FlipBitForTesting(block, 77).ok());
  BufferPool fresh(&disk, 4);
  Status s = fresh.Fetch(block).status();
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();

  // Flipping the same bit back restores the block.
  ASSERT_TRUE(disk.FlipBitForTesting(block, 77).ok());
  EXPECT_TRUE(fresh.Fetch(block).ok());
}

TEST(FaultInjectionTest, UsableBlockBytesReservesChecksumFrame) {
  SimulatedDisk disk(512);
  BufferPool pool(&disk, 4);
  EXPECT_EQ(pool.usable_block_bytes(), 512 - kChecksumFrameBytes);

  // A record sized exactly to the usable capacity round-trips; the framed
  // write never exceeds the raw block size.
  RecordStore store(&disk, &pool);
  size_t max_payload =
      pool.usable_block_bytes() - kRecordOverheadBytes - kBlockHeaderBytes;
  ASSERT_TRUE(store.Put(InstanceId(1), std::string(max_payload, 'z')).ok());
  ASSERT_TRUE(pool.FlushAll().ok());
  EXPECT_FALSE(store.Put(InstanceId(2), std::string(max_payload + 1, 'z')).ok());
}

}  // namespace
}  // namespace cactis::storage
