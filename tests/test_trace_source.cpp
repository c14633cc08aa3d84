/**
 * @file
 * Tests for the batched trace-delivery API: TraceSpan, TraceSource
 * block iteration, and materializeTrace.
 */

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "trace/source.hpp"
#include "workloads/workload.hpp"

namespace vpsim
{
namespace
{

TraceRecord
syntheticRecord(std::uint64_t n)
{
    TraceRecord record;
    record.seq = n;
    record.pc = 0x1000 + 4 * n;
    record.result = n * 3 + 1;
    return record;
}

std::vector<TraceRecord>
syntheticTrace(std::size_t count)
{
    std::vector<TraceRecord> records;
    records.reserve(count);
    for (std::size_t n = 0; n < count; ++n)
        records.push_back(syntheticRecord(n));
    return records;
}

/**
 * A streaming source that recycles one internal block buffer per
 * delivery (the lifetime contract's worst case): spans from earlier
 * nextBlock() calls are clobbered by the next successful call, and the
 * backing store is never contiguous across blocks.
 */
class ChunkedTraceSource : public TraceSource
{
  public:
    ChunkedTraceSource(std::vector<TraceRecord> trace_records,
                       std::size_t chunk)
        : all(std::move(trace_records)), chunkSize(chunk)
    {}

    bool
    nextBlock(TraceSpan &out,
              std::size_t max_records = defaultBlockRecords) override
    {
        const std::size_t remaining = all.size() - position;
        if (remaining == 0) {
            out = TraceSpan();
            return false;
        }
        const std::size_t count =
            std::min({chunkSize, max_records, remaining});
        buffer.assign(all.begin() + position,
                      all.begin() + position + count);
        position += count;
        out = TraceSpan(buffer);
        return true;
    }

    void reset() override { position = 0; }

  private:
    std::vector<TraceRecord> all;
    std::vector<TraceRecord> buffer;
    std::size_t chunkSize;
    std::size_t position = 0;
};

TEST(TraceSpan, DefaultIsEmpty)
{
    TraceSpan span;
    EXPECT_TRUE(span.empty());
    EXPECT_EQ(span.size(), 0u);
    EXPECT_EQ(span.begin(), span.end());
}

TEST(TraceSpan, ViewsAVectorImplicitly)
{
    const auto records = syntheticTrace(5);
    const TraceSpan span = records;
    ASSERT_EQ(span.size(), records.size());
    EXPECT_EQ(span.data(), records.data());
    EXPECT_EQ(span.front().seq, 0u);
    EXPECT_EQ(span.back().seq, 4u);
    EXPECT_EQ(span[2].pc, records[2].pc);
}

TEST(TraceSpan, SubspanAndFirstSlice)
{
    const auto records = syntheticTrace(10);
    const TraceSpan span = records;
    const TraceSpan head = span.first(3);
    ASSERT_EQ(head.size(), 3u);
    EXPECT_EQ(head.data(), records.data());
    const TraceSpan middle = span.subspan(4, 2);
    ASSERT_EQ(middle.size(), 2u);
    EXPECT_EQ(middle.front().seq, 4u);
    const TraceSpan tail = span.subspan(7);
    ASSERT_EQ(tail.size(), 3u);
    EXPECT_EQ(tail.back().seq, 9u);
}

TEST(TraceSource, EmptyTraceExhaustsImmediately)
{
    BorrowedTraceSource source{TraceSpan()};
    TraceSpan block;
    EXPECT_FALSE(source.nextBlock(block));
    EXPECT_TRUE(block.empty());
    EXPECT_FALSE(source.nextBlock(block, 1));
}

TEST(TraceSource, DeliversTailSmallerThanRequest)
{
    const auto records = syntheticTrace(10);
    BorrowedTraceSource source{TraceSpan(records)};
    TraceSpan block;
    ASSERT_TRUE(source.nextBlock(block, 4));
    EXPECT_EQ(block.size(), 4u);
    EXPECT_EQ(block.front().seq, 0u);
    ASSERT_TRUE(source.nextBlock(block, 4));
    EXPECT_EQ(block.size(), 4u);
    EXPECT_EQ(block.front().seq, 4u);
    ASSERT_TRUE(source.nextBlock(block, 4));
    EXPECT_EQ(block.size(), 2u);
    EXPECT_EQ(block.back().seq, 9u);
    // Exhaustion does not invalidate the previously delivered span.
    TraceSpan exhausted;
    EXPECT_FALSE(source.nextBlock(exhausted, 4));
    EXPECT_TRUE(exhausted.empty());
    EXPECT_EQ(block.size(), 2u);
    EXPECT_EQ(block.back().seq, 9u);
}

TEST(TraceSource, NoLimitDeliversEverythingContiguously)
{
    const auto records = syntheticTrace(1000);
    BorrowedTraceSource source{TraceSpan(records)};
    TraceSpan block;
    ASSERT_TRUE(source.nextBlock(block, TraceSpan::noLimit));
    EXPECT_EQ(block.size(), 1000u);
    EXPECT_FALSE(source.nextBlock(block, TraceSpan::noLimit));
}

TEST(TraceSource, ResetMidBlockRestartsFromTheTop)
{
    const auto records = syntheticTrace(10);
    BorrowedTraceSource source{TraceSpan(records)};
    TraceSpan block;
    ASSERT_TRUE(source.nextBlock(block, 4));
    ASSERT_TRUE(source.nextBlock(block, 4));
    source.reset();
    ASSERT_TRUE(source.nextBlock(block, TraceSpan::noLimit));
    EXPECT_EQ(block.size(), 10u);
    EXPECT_EQ(block.front().seq, 0u);
}

TEST(TraceSource, BorrowedSourceViewsForeignStorage)
{
    const auto records = syntheticTrace(50);
    BorrowedTraceSource source{TraceSpan(records)};
    EXPECT_EQ(source.size(), 50u);
    TraceSpan block;
    ASSERT_TRUE(source.nextBlock(block, 30));
    EXPECT_EQ(block.data(), records.data());
    ASSERT_TRUE(source.nextBlock(block, 30));
    EXPECT_EQ(block.data(), records.data() + 30);
    EXPECT_EQ(block.size(), 20u);
    source.reset();
    ASSERT_TRUE(source.nextBlock(block, TraceSpan::noLimit));
    EXPECT_EQ(block.size(), 50u);
}

TEST(TraceSource, MaterializeIsZeroCopyForContiguousSources)
{
    const auto records = syntheticTrace(200);
    BorrowedTraceSource source{TraceSpan(records)};
    std::vector<TraceRecord> storage;
    const TraceSpan span = materializeTrace(source, storage);
    EXPECT_EQ(span.size(), 200u);
    EXPECT_TRUE(storage.empty());
    EXPECT_EQ(span.data(), records.data());
}

TEST(TraceSource, MaterializeCopiesFromStreamingSources)
{
    const auto records = syntheticTrace(200);
    ChunkedTraceSource source{records, 32};
    std::vector<TraceRecord> storage;
    const TraceSpan span = materializeTrace(source, storage);
    ASSERT_EQ(span.size(), 200u);
    EXPECT_EQ(storage.size(), 200u);
    EXPECT_EQ(span.data(), storage.data());
    for (std::size_t i = 0; i < records.size(); ++i)
        EXPECT_EQ(span[i].seq, records[i].seq);
}

TEST(TraceSource, MaterializeEmptySourceYieldsEmptySpan)
{
    BorrowedTraceSource source{TraceSpan()};
    std::vector<TraceRecord> storage;
    const TraceSpan span = materializeTrace(source, storage);
    EXPECT_TRUE(span.empty());
    EXPECT_TRUE(storage.empty());
}

} // namespace
} // namespace vpsim
