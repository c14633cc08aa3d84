/**
 * @file
 * Tests for trace file I/O through the Status API (v3 files, both
 * reader backends) and trace statistics.
 */

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "trace/source.hpp"
#include "trace/trace_stats.hpp"
#include "trace/trace_v3.hpp"
#include "workloads/workload.hpp"

namespace vpsim
{
namespace
{

std::string
tempPath(const std::string &name)
{
    const char *dir = std::getenv("TMPDIR");
    return std::string(dir ? dir : "/tmp") + "/" + name;
}

void
expectSameRecords(const std::vector<TraceRecord> &got,
                  const std::vector<TraceRecord> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(got[i].seq, want[i].seq) << "record " << i;
        ASSERT_EQ(got[i].pc, want[i].pc) << "record " << i;
        ASSERT_EQ(got[i].nextPc, want[i].nextPc) << "record " << i;
        ASSERT_EQ(got[i].memAddr, want[i].memAddr) << "record " << i;
        ASSERT_EQ(got[i].result, want[i].result) << "record " << i;
        ASSERT_EQ(got[i].op, want[i].op) << "record " << i;
        ASSERT_EQ(got[i].rd, want[i].rd) << "record " << i;
        ASSERT_EQ(got[i].rs1, want[i].rs1) << "record " << i;
        ASSERT_EQ(got[i].rs2, want[i].rs2) << "record " << i;
        ASSERT_EQ(got[i].taken, want[i].taken) << "record " << i;
    }
}

/** XOR @p mask into the byte at @p offset of the file at @p path. */
void
flipByte(const std::string &path, long offset, int mask)
{
    std::FILE *file = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(file, nullptr);
    std::fseek(file, offset, SEEK_SET);
    const int byte = std::fgetc(file);
    std::fseek(file, offset, SEEK_SET);
    std::fputc(byte ^ mask, file);
    std::fclose(file);
}

/** Cut the file at @p path down to @p size bytes. */
void
truncateTo(const std::string &path, std::uintmax_t size)
{
    std::error_code ec;
    std::filesystem::resize_file(path, size, ec);
    ASSERT_FALSE(ec) << ec.message();
}

std::uintmax_t
fileSize(const std::string &path)
{
    std::error_code ec;
    const std::uintmax_t size = std::filesystem::file_size(path, ec);
    EXPECT_FALSE(ec) << ec.message();
    return size;
}

/**
 * Read a whole v3 file in strict mode through one chosen backend:
 * the mapped one (@p prefer_mapped) or the buffered one.
 */
Status
readWithBackend(const std::string &path, bool prefer_mapped,
                std::vector<TraceRecord> *out)
{
    out->clear();
    TraceV3Reader reader;
    TraceV3Reader::Options options;
    options.preferMapped = prefer_mapped;
    if (Status opened = reader.open(path, options); !opened.isOk())
        return opened;
    EXPECT_EQ(reader.usingBufferedReads(), !prefer_mapped);
    TraceSoa block;
    for (;;) {
        TraceV3Reader::Block outcome = TraceV3Reader::Block::kEnd;
        if (Status got = reader.nextBlock(&block, &outcome);
            !got.isOk()) {
            return got;
        }
        if (outcome == TraceV3Reader::Block::kEnd)
            return Status::ok();
        const TraceColumns cols = block.columns();
        for (std::size_t i = 0; i < cols.size(); ++i)
            out->push_back(cols.record(i));
    }
}

/** File offset of the first block's payload in a v3 file. */
constexpr long firstPayload =
    static_cast<long>(v3HeaderBytes + v3BlockFrameBytes);

TEST(TraceIo, RoundTripsARealTrace)
{
    const auto original = captureWorkloadTrace("compress", 5000);
    const std::string path = tempPath("vpsim_roundtrip.vptrace");
    ASSERT_TRUE(writeTraceV3(path, original).isOk());
    std::vector<TraceRecord> reloaded;
    ASSERT_TRUE(readTraceV3(path, &reloaded).isOk());
    expectSameRecords(reloaded, original);
    std::remove(path.c_str());
}

TEST(TraceIo, EmptyTraceRoundTrips)
{
    // Header + trailer only: both backends must see a clean, empty
    // trace (the mapped one over a file with no block at all).
    const std::string path = tempPath("vpsim_empty.vptrace");
    ASSERT_TRUE(writeTraceV3(path, {}).isOk());
    EXPECT_EQ(fileSize(path), v3HeaderBytes + v3TrailerBytes);
    for (const bool mapped : {true, false}) {
        std::vector<TraceRecord> out = {TraceRecord()};
        const Status read = readWithBackend(path, mapped, &out);
        ASSERT_TRUE(read.isOk()) << read.message();
        EXPECT_TRUE(out.empty()) << "mapped=" << mapped;
    }
    std::remove(path.c_str());
}

TEST(TraceIo, StatusApiRoundTrips)
{
    // 2000 records in blocks of 500: the last block is full, so the
    // trailer directly follows a complete block (no partial tail).
    const auto original = captureWorkloadTrace("go", 2000);
    ASSERT_EQ(original.size(), 2000u);
    const std::string path = tempPath("vpsim_status_roundtrip.vptrace");
    const Status written = writeTraceV3(path, original, 500);
    ASSERT_TRUE(written.isOk()) << written.message();
    std::vector<TraceRecord> reloaded;
    const Status read = readTraceV3(path, &reloaded);
    ASSERT_TRUE(read.isOk()) << read.message();
    expectSameRecords(reloaded, original);
    std::remove(path.c_str());
}

TEST(TraceIo, StatusApiNamesTheMissingFile)
{
    const std::string path = tempPath("vpsim_status_missing.vptrace");
    std::vector<TraceRecord> out;
    const Status read = readTraceV3(path, &out);
    ASSERT_FALSE(read.isOk());
    EXPECT_EQ(read.code(), StatusCode::kIo);
    EXPECT_NE(read.message().find(path), std::string::npos)
        << "error must name the offending file: " << read.message();
}

TEST(TraceIo, StatusApiRejectsTrailingBytes)
{
    const std::string path = tempPath("vpsim_status_trailing.vptrace");
    const auto trace = captureWorkloadTrace("go", 100);
    ASSERT_TRUE(writeTraceV3(path, trace).isOk());
    std::FILE *file = std::fopen(path.c_str(), "ab");
    ASSERT_NE(file, nullptr);
    const char junk = 'X';
    std::fwrite(&junk, 1, 1, file);
    std::fclose(file);
    std::vector<TraceRecord> out;
    const Status read = readTraceV3(path, &out);
    ASSERT_FALSE(read.isOk());
    EXPECT_EQ(read.code(), StatusCode::kCorrupt);
    EXPECT_NE(read.message().find("trailing"), std::string::npos)
        << read.message();
    std::remove(path.c_str());
}

TEST(TraceIo, StatusApiRejectsBadMagic)
{
    const std::string path = tempPath("vpsim_status_badmagic.vptrace");
    std::FILE *file = std::fopen(path.c_str(), "wb");
    ASSERT_NE(file, nullptr);
    const char junk[16] = {'J', 'U', 'N', 'K'};
    std::fwrite(junk, 1, sizeof(junk), file);
    std::fclose(file);
    std::vector<TraceRecord> out;
    const Status read = readTraceV3(path, &out);
    ASSERT_FALSE(read.isOk());
    EXPECT_EQ(read.code(), StatusCode::kCorrupt);
    EXPECT_NE(read.message().find("magic"), std::string::npos);
    std::remove(path.c_str());
}

TEST(TraceIo, VersionMismatchReportsFoundAndExpected)
{
    const std::string path = tempPath("vpsim_version.vptrace");
    const auto trace = captureWorkloadTrace("go", 50);
    ASSERT_TRUE(writeTraceV3(path, trace).isOk());
    // Patch the version byte to a stale value.
    flipByte(path, 4, static_cast<int>(traceFormatVersionV3 ^ 1u));

    std::vector<TraceRecord> out;
    const Status read = readTraceV3(path, &out);
    ASSERT_FALSE(read.isOk());
    EXPECT_EQ(read.code(), StatusCode::kCorrupt);
    EXPECT_NE(read.message().find("version 1"), std::string::npos)
        << "must report the version found: " << read.message();
    EXPECT_NE(read.message().find(
                  "expected " + std::to_string(traceFormatVersionV3)),
              std::string::npos)
        << "must report the version expected: " << read.message();
    std::remove(path.c_str());
}

TEST(TraceIo, ChecksumCatchesFlippedPayloadByte)
{
    const std::string path = tempPath("vpsim_bitflip.vptrace");
    const auto trace = captureWorkloadTrace("go", 200);
    ASSERT_TRUE(writeTraceV3(path, trace).isOk());
    // Flip one bit inside the first block's payload — a corruption that
    // no structural check (magic, version, frame sizes) can see. Only
    // the block's checksum catches it.
    flipByte(path, firstPayload + 3, 0x40);

    std::vector<TraceRecord> out;
    const Status read = readTraceV3(path, &out);
    ASSERT_FALSE(read.isOk());
    EXPECT_EQ(read.code(), StatusCode::kCorrupt);
    EXPECT_NE(read.message().find("checksum mismatch"),
              std::string::npos)
        << read.message();
    EXPECT_NE(read.message().find(path), std::string::npos);
    std::remove(path.c_str());
}

TEST(TraceIo, MissingFooterIsCorrupt)
{
    const std::string path = tempPath("vpsim_nofooter.vptrace");
    const auto trace = captureWorkloadTrace("go", 100);
    ASSERT_TRUE(writeTraceV3(path, trace).isOk());
    truncateTo(path, fileSize(path) - v3TrailerBytes);
    std::vector<TraceRecord> out;
    const Status read = readTraceV3(path, &out);
    ASSERT_FALSE(read.isOk());
    EXPECT_EQ(read.code(), StatusCode::kCorrupt);
    EXPECT_NE(read.message().find("missing trailer"), std::string::npos)
        << read.message();
    std::remove(path.c_str());
}

TEST(TraceIo, MappedAndBufferedReadsAgree)
{
    const auto original = captureWorkloadTrace("li", 3000);
    const std::string path = tempPath("vpsim_mmap_parity.vptrace");
    ASSERT_TRUE(writeTraceV3(path, original, 512).isOk());

    std::vector<TraceRecord> via_mapped;
    ASSERT_TRUE(readWithBackend(path, true, &via_mapped).isOk());
    std::vector<TraceRecord> via_buffered;
    ASSERT_TRUE(readWithBackend(path, false, &via_buffered).isOk());

    expectSameRecords(via_mapped, original);
    expectSameRecords(via_buffered, original);
    std::remove(path.c_str());
}

TEST(TraceIo, MappedAndBufferedCorruptionMessagesAgree)
{
    // Every corruption class must fail identically on both strict read
    // backends: the trace cache quarantines based on code and message,
    // so the mapped fast path may not drift from the buffered one. Each
    // corruptor mutates a fresh copy of a valid two-block file.
    const auto trace = captureWorkloadTrace("go", 120);
    const std::string path = tempPath("vpsim_mmap_corrupt.vptrace");
    const auto corrupt_then_compare = [&](const char *what,
                                          auto &&corruptor) {
        SCOPED_TRACE(what);
        ASSERT_TRUE(writeTraceV3(path, trace, 64).isOk());
        corruptor(path);

        std::vector<TraceRecord> out;
        const Status mapped = readWithBackend(path, true, &out);
        const Status buffered = readWithBackend(path, false, &out);
        ASSERT_FALSE(mapped.isOk());
        EXPECT_EQ(mapped.code(), StatusCode::kCorrupt);
        EXPECT_EQ(mapped.code(), buffered.code());
        EXPECT_EQ(mapped.message(), buffered.message());
        std::remove(path.c_str());
    };

    corrupt_then_compare("bad magic", [](const std::string &p) {
        flipByte(p, 0, 'V' ^ 'J');
    });
    corrupt_then_compare("wrong version", [](const std::string &p) {
        flipByte(p, 4, static_cast<int>(traceFormatVersionV3 ^ 1u));
    });
    corrupt_then_compare("mid-block truncation", [](const std::string &p) {
        truncateTo(p, static_cast<std::uintmax_t>(firstPayload) + 5);
    });
    corrupt_then_compare("flipped payload byte", [](const std::string &p) {
        flipByte(p, firstPayload + 5, 0x10);
    });
    corrupt_then_compare("missing trailer", [](const std::string &p) {
        truncateTo(p, fileSize(p) - v3TrailerBytes);
    });
    corrupt_then_compare("torn trailer", [](const std::string &p) {
        truncateTo(p, fileSize(p) - 3);
    });
    corrupt_then_compare("trailing garbage", [](const std::string &p) {
        std::FILE *file = std::fopen(p.c_str(), "ab");
        ASSERT_NE(file, nullptr);
        std::fwrite("??", 1, 2, file);
        std::fclose(file);
    });
}

TEST(TraceStatsTest, CountsAreConsistent)
{
    const auto trace = captureWorkloadTrace("gcc", 20000);
    const TraceStats stats = computeTraceStats(trace);
    EXPECT_EQ(stats.totalInsts, trace.size());
    EXPECT_LE(stats.takenCondBranches, stats.condBranches);
    EXPECT_GT(stats.valueProducers, 0u);
    const std::uint64_t classified = stats.aluOps + stats.mulDivOps +
                                     stats.loads + stats.stores +
                                     stats.condBranches + stats.jumps;
    EXPECT_LE(classified, stats.totalInsts);
    EXPECT_GE(classified, stats.totalInsts * 9 / 10)
        << "nops/halts are rare";
}

TEST(TraceStatsTest, ReportMentionsName)
{
    const auto trace = captureWorkloadTrace("perl", 2000);
    const TraceStats stats = computeTraceStats(trace);
    EXPECT_NE(stats.report("perl").find("perl"), std::string::npos);
}

TEST(SliceTrace, SkipsAndRenumbers)
{
    const auto full = captureWorkloadTrace("li", 1000);
    const auto sliced = sliceTrace(full, 300);
    ASSERT_EQ(sliced.size(), 700u);
    for (std::size_t i = 0; i < sliced.size(); ++i) {
        EXPECT_EQ(sliced[i].seq, i) << "dense renumbering";
        EXPECT_EQ(sliced[i].pc, full[300 + i].pc);
        EXPECT_EQ(sliced[i].result, full[300 + i].result);
    }
}

TEST(SliceTrace, LengthBounds)
{
    const auto full = captureWorkloadTrace("go", 500);
    EXPECT_EQ(sliceTrace(full, 100, 50).size(), 50u);
    EXPECT_EQ(sliceTrace(full, 450, 500).size(), 50u)
        << "length clamps at the end";
    EXPECT_TRUE(sliceTrace(full, 1000).empty());
    EXPECT_EQ(sliceTrace(full, 0).size(), full.size());
}

TEST(SliceTrace, AnalysesRunOnSlices)
{
    // A slice must be a valid input for the DID machinery (dense seqs).
    const auto full = captureWorkloadTrace("perl", 4000);
    const auto sliced = sliceTrace(full, 1000);
    for (std::size_t i = 0; i + 1 < sliced.size(); ++i)
        ASSERT_EQ(sliced[i].nextPc, sliced[i + 1].pc);
}

TEST(TraceStatsTest, EmptyTrace)
{
    const TraceStats stats = computeTraceStats({});
    EXPECT_EQ(stats.totalInsts, 0u);
    EXPECT_DOUBLE_EQ(stats.takenRate, 0.0);
}

TEST(TraceStatsTest, SourceOverloadMatchesSpanOverload)
{
    const auto trace = captureWorkloadTrace("compress", 3000);
    const TraceStats from_span = computeTraceStats(trace);
    BorrowedTraceSource source{TraceSpan(trace)};
    const TraceStats from_source = computeTraceStats(source);
    EXPECT_EQ(from_span.totalInsts, from_source.totalInsts);
    EXPECT_EQ(from_span.distinctPcs, from_source.distinctPcs);
    EXPECT_EQ(from_span.valueProducers, from_source.valueProducers);
    EXPECT_DOUBLE_EQ(from_span.takenRate, from_source.takenRate);
    EXPECT_DOUBLE_EQ(from_span.avgBasicBlock,
                     from_source.avgBasicBlock);
}

} // namespace
} // namespace vpsim
