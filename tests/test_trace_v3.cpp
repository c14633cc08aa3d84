/**
 * @file
 * Tests for the v3 block-framed trace format, salvage containment, and
 * the bounded-memory streaming source.
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32.hpp"
#include "common/io.hpp"
#include "trace/streaming_source.hpp"
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

struct InjectorGuard
{
    ~InjectorGuard() { io::configureFaultInjection(""); }
};

std::vector<unsigned char>
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<unsigned char>(
        std::istreambuf_iterator<char>(in),
        std::istreambuf_iterator<char>());
}

void
spit(const std::string &path, const std::vector<unsigned char> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

/**
 * Walk the block frames of a v3 image and return the file offset of
 * block @p index's frame header (records seen before it in *skipped).
 */
std::size_t
blockOffset(const std::vector<unsigned char> &bytes, std::size_t index,
            std::uint64_t *records_before = nullptr,
            std::uint32_t *record_count = nullptr)
{
    auto u32 = [&bytes](std::size_t at) {
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(bytes[at + i]) << (8 * i);
        return v;
    };
    std::size_t offset = v3HeaderBytes;
    std::uint64_t before = 0;
    for (std::size_t b = 0;; ++b) {
        EXPECT_EQ(std::string(bytes.begin() + offset,
                              bytes.begin() + offset + 4),
                  "VPB3");
        const std::uint32_t count = u32(offset + 4);
        if (b == index) {
            if (records_before)
                *records_before = before;
            if (record_count)
                *record_count = count;
            return offset;
        }
        before += count;
        offset += v3BlockFrameBytes + u32(offset + 8) + 4;
    }
}

/** SHA-256 (FIPS 180-4) of @p bytes as lowercase hex. */
std::string
sha256Hex(const std::vector<unsigned char> &bytes)
{
    static constexpr std::uint32_t k[64] = {
        0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b,
        0x59f111f1, 0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01,
        0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7,
        0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc,
        0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152,
        0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
        0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
        0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
        0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819,
        0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116, 0x1e376c08,
        0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f,
        0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
        0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};
    std::uint32_t h[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                          0xa54ff53a, 0x510e527f, 0x9b05688c,
                          0x1f83d9ab, 0x5be0cd19};
    std::vector<unsigned char> msg = bytes;
    const std::uint64_t bits = static_cast<std::uint64_t>(bytes.size()) * 8;
    msg.push_back(0x80);
    while (msg.size() % 64 != 56)
        msg.push_back(0);
    for (int i = 7; i >= 0; --i)
        msg.push_back(static_cast<unsigned char>(bits >> (8 * i)));
    const auto rotr = [](std::uint32_t x, int n) {
        return (x >> n) | (x << (32 - n));
    };
    for (std::size_t off = 0; off < msg.size(); off += 64) {
        std::uint32_t w[64];
        for (int i = 0; i < 16; ++i) {
            w[i] = static_cast<std::uint32_t>(msg[off + 4 * i]) << 24 |
                   static_cast<std::uint32_t>(msg[off + 4 * i + 1]) << 16 |
                   static_cast<std::uint32_t>(msg[off + 4 * i + 2]) << 8 |
                   static_cast<std::uint32_t>(msg[off + 4 * i + 3]);
        }
        for (int i = 16; i < 64; ++i) {
            const std::uint32_t s0 = rotr(w[i - 15], 7) ^
                                     rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
            const std::uint32_t s1 = rotr(w[i - 2], 17) ^
                                     rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16] + s0 + w[i - 7] + s1;
        }
        std::uint32_t v[8];
        std::copy(h, h + 8, v);
        for (int i = 0; i < 64; ++i) {
            const std::uint32_t s1 =
                rotr(v[4], 6) ^ rotr(v[4], 11) ^ rotr(v[4], 25);
            const std::uint32_t ch = (v[4] & v[5]) ^ (~v[4] & v[6]);
            const std::uint32_t t1 = v[7] + s1 + ch + k[i] + w[i];
            const std::uint32_t s0 =
                rotr(v[0], 2) ^ rotr(v[0], 13) ^ rotr(v[0], 22);
            const std::uint32_t maj =
                (v[0] & v[1]) ^ (v[0] & v[2]) ^ (v[1] & v[2]);
            std::copy_backward(v, v + 7, v + 8);
            v[4] += t1;
            v[0] = t1 + s0 + maj;
        }
        for (int i = 0; i < 8; ++i)
            h[i] += v[i];
    }
    std::string hex;
    char digit[9];
    for (std::uint32_t word : h) {
        std::snprintf(digit, sizeof(digit), "%08x", word);
        hex += digit;
    }
    return hex;
}

/** Little-endian field helpers for hand-editing v3 images. */
std::uint32_t
getU32(const std::vector<unsigned char> &bytes, std::size_t at)
{
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(bytes[at + i]) << (8 * i);
    return v;
}

void
putU32(std::vector<unsigned char> &bytes, std::size_t at, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        bytes[at + i] = static_cast<unsigned char>(v >> (8 * i));
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

TEST(TraceV3, RoundTripsARealTraceAcrossBlocks)
{
    const auto original = captureWorkloadTrace("compress", 5000);
    const std::string path = tempPath("vpsim_v3_roundtrip.vptrace");
    ASSERT_TRUE(writeTraceV3(path, original, 512).isOk());

    std::vector<TraceRecord> reloaded;
    ASSERT_TRUE(readTraceV3(path, &reloaded).isOk());
    expectSameRecords(reloaded, original);
    std::remove(path.c_str());
}

TEST(TraceV3, ReadSizesItsOutputOnceFromTheTrailer)
{
    // Twenty blocks: growing by one block per read would leave
    // capacity != size (and copy the trace once per block on the way).
    const auto original = captureWorkloadTrace("go", 20000);
    const std::string path = tempPath("vpsim_v3_sized.vptrace");
    ASSERT_TRUE(writeTraceV3(path, original, 1024).isOk());

    std::vector<TraceRecord> reloaded;
    ASSERT_TRUE(readTraceV3(path, &reloaded).isOk());
    EXPECT_EQ(reloaded.capacity(), reloaded.size());
    expectSameRecords(reloaded, original);
    std::remove(path.c_str());
}

TEST(TraceV3, ForgedTrailerCountFailsBeforeAllocating)
{
    const auto original = captureWorkloadTrace("compress", 4000);
    const std::string path = tempPath("vpsim_v3_forged.vptrace");
    ASSERT_TRUE(writeTraceV3(path, original, 512).isOk());

    // A re-CRC'd trailer claiming far more records than the file's
    // bytes can encode (each record needs at least 9).
    std::vector<unsigned char> bytes = slurp(path);
    const std::size_t trailer = bytes.size() - v3TrailerBytes;
    putU32(bytes, trailer + 4, 0);
    putU32(bytes, trailer + 8, 0x40);
    putU32(bytes, trailer + 20, crc32(bytes.data() + trailer, 20));
    spit(path, bytes);

    std::vector<TraceRecord> out;
    const Status strict = readTraceV3(path, &out);
    ASSERT_FALSE(strict.isOk());
    EXPECT_EQ(strict.code(), StatusCode::kCorrupt);
    EXPECT_NE(strict.message().find("trace trailer mismatch"),
              std::string::npos)
        << strict.message();
    EXPECT_EQ(out.capacity(), 0u) << "nothing may be allocated";

    // Salvage ignores the hint and still delivers every intact block.
    ASSERT_TRUE(readTraceV3(path, &out, /*salvage=*/true).isOk());
    expectSameRecords(out, original);
    EXPECT_LE(out.capacity(), 2 * original.size());
    std::remove(path.c_str());
}

TEST(TraceV3, SalvageReturnsExactlyTheRecordsItDelivered)
{
    const auto original = captureWorkloadTrace("go", 4000);
    const std::string path = tempPath("vpsim_v3_bad_encoding.vptrace");
    ASSERT_TRUE(writeTraceV3(path, original, 512).isOk());

    // Block 2's last opcode byte becomes invalid and the frame CRC is
    // recomputed, so the block passes its checksum and fails only in
    // decode, after its first 511 records were already written out.
    std::vector<unsigned char> bytes = slurp(path);
    std::uint64_t records_before = 0;
    std::uint32_t block_count = 0;
    const std::size_t offset =
        blockOffset(bytes, 2, &records_before, &block_count);
    const std::size_t payload = offset + v3BlockFrameBytes;
    const std::size_t payload_end = payload + getU32(bytes, offset + 8);
    bytes[payload_end - 4] = 0x7f;
    putU32(bytes, payload_end,
           crc32(bytes.data() + offset, payload_end - offset));
    spit(path, bytes);

    std::vector<TraceRecord> out;
    const Status strict = readTraceV3(path, &out);
    ASSERT_FALSE(strict.isOk());
    EXPECT_NE(strict.message().find("corrupt record encoding in block 2"),
              std::string::npos)
        << strict.message();

    BlockSalvageReport report;
    ASSERT_TRUE(readTraceV3(path, &out, /*salvage=*/true, &report)
                    .isOk());
    EXPECT_EQ(report.blocksQuarantined, 1u);
    EXPECT_EQ(out.size(), report.recordsDelivered);
    EXPECT_EQ(out.capacity(), out.size());
    std::vector<TraceRecord> expected(
        original.begin(),
        original.begin() + static_cast<std::ptrdiff_t>(records_before));
    expected.insert(expected.end(),
                    original.begin() + static_cast<std::ptrdiff_t>(
                                           records_before + block_count),
                    original.end());
    expectSameRecords(out, expected);
    std::remove(path.c_str());
}

TEST(TraceV3, ColumnarAndRecordDecodeAgreeOnEveryWorkload)
{
    // Both output layouts share one decoder; this pins that the SoA
    // adapter and the in-place record path see identical records.
    const std::string path = tempPath("vpsim_v3_layouts.vptrace");
    for (const std::string &name : workloadNames()) {
        const auto original = captureWorkloadTrace(name, 20000);
        ASSERT_TRUE(writeTraceV3(path, original, 4096).isOk());
        TraceV3Reader::Options options;
        options.preferMapped = true;
        TraceV3Reader columnar;
        TraceV3Reader direct;
        ASSERT_TRUE(columnar.open(path, options).isOk());
        ASSERT_TRUE(direct.open(path, options).isOk());
        TraceSoa soa;
        std::vector<TraceRecord> records;
        std::size_t seen = 0;
        for (;;) {
            TraceV3Reader::Block soa_outcome = TraceV3Reader::Block::kEnd;
            TraceV3Reader::Block rec_outcome = TraceV3Reader::Block::kEnd;
            ASSERT_TRUE(columnar.nextBlock(&soa, &soa_outcome).isOk());
            records.clear();
            ASSERT_TRUE(direct.appendBlock(&records, &rec_outcome).isOk());
            ASSERT_EQ(soa_outcome, rec_outcome) << name;
            if (soa_outcome == TraceV3Reader::Block::kEnd)
                break;
            const TraceColumns cols = soa.columns();
            std::vector<TraceRecord> gathered;
            for (std::size_t i = 0; i < cols.size(); ++i)
                gathered.push_back(cols.record(i));
            expectSameRecords(records, gathered);
            seen += records.size();
        }
        EXPECT_EQ(seen, original.size()) << name;
    }
    std::remove(path.c_str());
}

TEST(TraceV3, EmptyTraceRoundTrips)
{
    const std::string path = tempPath("vpsim_v3_empty.vptrace");
    ASSERT_TRUE(writeTraceV3(path, {}).isOk());
    std::vector<TraceRecord> reloaded = {TraceRecord()};
    ASSERT_TRUE(readTraceV3(path, &reloaded).isOk());
    EXPECT_TRUE(reloaded.empty());
    std::remove(path.c_str());
}

TEST(TraceV3, StreamedAppendsMatchTheWholeFileWriterByteForByte)
{
    const auto original = captureWorkloadTrace("go", 3000);
    const std::string whole = tempPath("vpsim_v3_whole.vptrace");
    const std::string streamed = tempPath("vpsim_v3_streamed.vptrace");
    ASSERT_TRUE(writeTraceV3(whole, original, 256).isOk());

    TraceV3Writer writer;
    ASSERT_TRUE(writer.open(streamed, 256).isOk());
    // Deliberately ragged span sizes: block framing must not depend on
    // how append() batches arrive.
    std::size_t at = 0;
    const std::size_t steps[] = {1, 100, 17, 1000, 3};
    std::size_t step = 0;
    while (at < original.size()) {
        const std::size_t n =
            std::min(steps[step++ % 5], original.size() - at);
        ASSERT_TRUE(
            writer.append(TraceSpan(original.data() + at, n)).isOk());
        at += n;
    }
    ASSERT_TRUE(writer.finish().isOk());
    EXPECT_EQ(writer.recordsWritten(), original.size());

    EXPECT_EQ(slurp(whole), slurp(streamed));
    std::remove(whole.c_str());
    std::remove(streamed.c_str());
}

TEST(TraceV3, CompressesWellBelowTheV2Format)
{
    // The retired v2 format stored every record as 45 packed bytes.
    constexpr std::size_t v2RecordBytes = 45;
    const auto original = captureWorkloadTrace("compress", 5000);
    const std::string v3 = tempPath("vpsim_v3_sizecheck_v3.vptrace");
    ASSERT_TRUE(writeTraceV3(v3, original).isOk());
    const std::size_t v2_bytes = original.size() * v2RecordBytes;
    const std::size_t v3_bytes = slurp(v3).size();
    EXPECT_LT(v3_bytes * 2, v2_bytes)
        << "delta/varint encoding should at least halve the 45-byte "
           "packed records (got "
        << v3_bytes << " vs " << v2_bytes << ")";
    std::remove(v3.c_str());
}

TEST(TraceV3, Sha256HelperMatchesTheStandardVectors)
{
    EXPECT_EQ(sha256Hex({}),
              "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b"
              "7852b855");
    EXPECT_EQ(sha256Hex({'a', 'b', 'c'}),
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61"
              "f20015ad");
}

TEST(TraceV3, WriterBytesMatchPinnedDigests)
{
    // The file bytes are pinned to fixed digests, so an encoder change
    // that keeps round trips working but alters the format (and with it
    // every published cache entry) cannot pass by agreeing with itself.
    struct Pinned
    {
        const char *workload;
        std::uint64_t insts;
        std::uint32_t recordsPerBlock;
        const char *sha256;
    };
    const Pinned pinned[] = {
        {"go", 20000, 4096,
         "fb98f8f87b9c55508090bb06fcd3419a31527e2a16ec454327eccbde46c5f740"},
        {"gcc", 100000, defaultRecordsPerBlock,
         "59d7bd7ffb7f9e12407206d1582ab9118743f03a3096ad9c04252f5e83a8b765"},
    };
    const std::string path = tempPath("vpsim_v3_pinned.vptrace");
    for (const Pinned &pin : pinned) {
        const auto trace = captureWorkloadTrace(pin.workload, pin.insts);
        ASSERT_TRUE(writeTraceV3(path, trace, pin.recordsPerBlock).isOk());
        EXPECT_EQ(sha256Hex(slurp(path)), pin.sha256) << pin.workload;
    }
    std::remove(path.c_str());
}

TEST(TraceV3, RejectsBadMagicVersionAndHeaderRot)
{
    const auto original = captureWorkloadTrace("go", 500);
    const std::string path = tempPath("vpsim_v3_header.vptrace");
    ASSERT_TRUE(writeTraceV3(path, original).isOk());
    const std::vector<unsigned char> good = slurp(path);
    std::vector<TraceRecord> out;

    std::vector<unsigned char> bad = good;
    bad[0] = 'J';
    spit(path, bad);
    Status got = readTraceV3(path, &out);
    ASSERT_FALSE(got.isOk());
    EXPECT_EQ(got.code(), StatusCode::kCorrupt);
    EXPECT_NE(got.message().find("bad trace file magic"),
              std::string::npos);

    bad = good;
    bad[4] = 2;
    spit(path, bad);
    got = readTraceV3(path, &out);
    ASSERT_FALSE(got.isOk());
    EXPECT_NE(got.message().find("unsupported trace file version 2"),
              std::string::npos);

    bad = good;
    bad[9] ^= 0x40; // records-per-block field: caught by header CRC.
    spit(path, bad);
    got = readTraceV3(path, &out);
    ASSERT_FALSE(got.isOk());
    EXPECT_NE(got.message().find("header checksum mismatch"),
              std::string::npos);
    std::remove(path.c_str());
}

TEST(TraceV3, FlippedBlockFailsStrictAndIsQuarantinedBySalvage)
{
    const auto original = captureWorkloadTrace("compress", 4000);
    const std::string path = tempPath("vpsim_v3_flip.vptrace");
    ASSERT_TRUE(writeTraceV3(path, original, 512).isOk());

    std::vector<unsigned char> bytes = slurp(path);
    std::uint64_t records_before = 0;
    std::uint32_t block_count = 0;
    const std::size_t offset =
        blockOffset(bytes, 2, &records_before, &block_count);
    bytes[offset + v3BlockFrameBytes + 7] ^= 0x01; // payload bit rot
    spit(path, bytes);

    std::vector<TraceRecord> out;
    const Status strict = readTraceV3(path, &out);
    ASSERT_FALSE(strict.isOk());
    EXPECT_EQ(strict.code(), StatusCode::kCorrupt);
    EXPECT_NE(strict.message().find("block"), std::string::npos)
        << strict.message();

    BlockSalvageReport report;
    ASSERT_TRUE(readTraceV3(path, &out, /*salvage=*/true, &report)
                    .isOk());
    EXPECT_EQ(report.blocksQuarantined, 1u);
    EXPECT_EQ(report.recordsLost, block_count);
    ASSERT_EQ(out.size(), original.size() - block_count);

    // Salvage loses exactly the quarantined block: everything before
    // it and everything after it survives bit-for-bit.
    std::vector<TraceRecord> expected(
        original.begin(),
        original.begin() + static_cast<std::ptrdiff_t>(records_before));
    expected.insert(expected.end(),
                    original.begin() + static_cast<std::ptrdiff_t>(
                                           records_before + block_count),
                    original.end());
    expectSameRecords(out, expected);
    std::remove(path.c_str());
}

TEST(TraceV3, TruncationMidBlockSalvagesThePrefix)
{
    const auto original = captureWorkloadTrace("go", 4000);
    const std::string path = tempPath("vpsim_v3_trunc.vptrace");
    ASSERT_TRUE(writeTraceV3(path, original, 512).isOk());

    std::vector<unsigned char> bytes = slurp(path);
    std::uint64_t records_before = 0;
    const std::size_t offset = blockOffset(bytes, 3, &records_before);
    bytes.resize(offset + v3BlockFrameBytes + 5); // cut mid-payload
    spit(path, bytes);

    std::vector<TraceRecord> out;
    const Status strict = readTraceV3(path, &out);
    ASSERT_FALSE(strict.isOk());
    EXPECT_EQ(strict.code(), StatusCode::kCorrupt);

    BlockSalvageReport report;
    ASSERT_TRUE(readTraceV3(path, &out, /*salvage=*/true, &report)
                    .isOk());
    EXPECT_GE(report.blocksQuarantined, 1u);
    ASSERT_EQ(out.size(), records_before);
    expectSameRecords(
        out, std::vector<TraceRecord>(
                 original.begin(),
                 original.begin() +
                     static_cast<std::ptrdiff_t>(records_before)));
    std::remove(path.c_str());
}

TEST(TraceV3, TrailingGarbageFailsStrictButNotSalvage)
{
    const auto original = captureWorkloadTrace("go", 1000);
    const std::string path = tempPath("vpsim_v3_trailing.vptrace");
    ASSERT_TRUE(writeTraceV3(path, original, 256).isOk());
    std::vector<unsigned char> bytes = slurp(path);
    for (int i = 0; i < 100; ++i)
        bytes.push_back(static_cast<unsigned char>(i * 7));
    spit(path, bytes);

    std::vector<TraceRecord> out;
    const Status strict = readTraceV3(path, &out);
    ASSERT_FALSE(strict.isOk());
    EXPECT_NE(strict.message().find("trailing bytes"),
              std::string::npos)
        << strict.message();

    ASSERT_TRUE(readTraceV3(path, &out, /*salvage=*/true).isOk());
    expectSameRecords(out, original);
    std::remove(path.c_str());
}

TEST(TraceV3, InjectedBlockCrcFaultQuarantinesExactlyThatBlock)
{
    InjectorGuard guard;
    const auto original = captureWorkloadTrace("compress", 3000);
    const std::string path = tempPath("vpsim_v3_blockfault.vptrace");
    ASSERT_TRUE(writeTraceV3(path, original, 512).isOk());

    io::configureFaultInjection("block:2:block-crc");
    std::vector<TraceRecord> out;
    const Status strict = readTraceV3(path, &out);
    ASSERT_FALSE(strict.isOk());
    EXPECT_EQ(strict.code(), StatusCode::kCorrupt);
    EXPECT_NE(strict.message().find("(injected)"), std::string::npos)
        << strict.message();

    io::configureFaultInjection("block:2:block-crc");
    BlockSalvageReport report;
    ASSERT_TRUE(readTraceV3(path, &out, /*salvage=*/true, &report)
                    .isOk());
    EXPECT_EQ(report.blocksQuarantined, 1u);
    EXPECT_EQ(out.size(), original.size() - 512);
    std::remove(path.c_str());
}

TEST(TraceV3, InjectedCaptureEnospcFailsTheAppend)
{
    InjectorGuard guard;
    io::configureFaultInjection("capture:2:enospc-capture");
    const auto original = captureWorkloadTrace("go", 100);
    const std::string path = tempPath("vpsim_v3_capfault.vptrace");
    TraceV3Writer writer;
    ASSERT_TRUE(writer.open(path).isOk());
    ASSERT_TRUE(writer.append(TraceSpan(original)).isOk());
    const Status second = writer.append(TraceSpan(original));
    ASSERT_FALSE(second.isOk());
    EXPECT_EQ(second.code(), StatusCode::kIo);
    EXPECT_NE(second.message().find("No space left on device"),
              std::string::npos)
        << second.message();
    writer.close();
    std::remove(path.c_str());
}

TEST(TraceV3, SalvageRegistryAccumulatesAndResets)
{
    salvageRegistry().reset();
    BlockSalvageReport damage;
    damage.blocksQuarantined = 2;
    damage.recordsLost = 1024;
    damage.bytesSkipped = 99;
    salvageRegistry().note("a.vptrace", damage);
    salvageRegistry().note("b.vptrace", damage);
    salvageRegistry().note("clean.vptrace", BlockSalvageReport());

    const SalvageRegistry::Totals totals = salvageRegistry().totals();
    EXPECT_EQ(totals.files, 2u) << "clean files are not counted";
    EXPECT_EQ(totals.blocksQuarantined, 4u);
    EXPECT_EQ(totals.recordsLost, 2048u);
    EXPECT_EQ(totals.bytesSkipped, 198u);
    salvageRegistry().reset();
    EXPECT_EQ(salvageRegistry().totals().files, 0u);
}

TEST(StreamingSource, DeliversTheWholeTraceInOrder)
{
    const auto original = captureWorkloadTrace("compress", 5000);
    const std::string path = tempPath("vpsim_v3_stream.vptrace");
    ASSERT_TRUE(writeTraceV3(path, original, 512).isOk());

    StreamingTraceSource source;
    ASSERT_TRUE(source.open(path).isOk());
    std::vector<TraceRecord> got;
    TraceSpan block;
    while (source.nextBlock(block, 300)) {
        EXPECT_LE(block.size(), 300u);
        got.insert(got.end(), block.begin(), block.end());
    }
    EXPECT_TRUE(source.status().isOk());
    EXPECT_EQ(source.recordsDelivered(), original.size());
    expectSameRecords(got, original);

    // reset() rewinds to the first record.
    source.reset();
    ASSERT_TRUE(source.nextBlock(block, 8));
    ASSERT_EQ(block.size(), 8u);
    EXPECT_EQ(block[0].seq, original[0].seq);
    EXPECT_EQ(block[0].pc, original[0].pc);
    std::remove(path.c_str());
}

TEST(StreamingSource, ColumnarPathMatchesTheSpanPath)
{
    const auto original = captureWorkloadTrace("go", 3000);
    const std::string path = tempPath("vpsim_v3_stream_cols.vptrace");
    ASSERT_TRUE(writeTraceV3(path, original, 256).isOk());

    StreamingTraceSource source;
    ASSERT_TRUE(source.open(path).isOk());
    ASSERT_TRUE(source.supportsColumns());
    std::vector<TraceRecord> got;
    TraceColumns cols;
    while (source.nextColumns(cols, 100)) {
        for (std::size_t i = 0; i < cols.size(); ++i)
            got.push_back(cols.record(i));
    }
    EXPECT_TRUE(source.status().isOk());
    expectSameRecords(got, original);
    std::remove(path.c_str());
}

TEST(StreamingSource, SpansNeverCrossBlockBoundaries)
{
    const auto original = captureWorkloadTrace("go", 2000);
    const std::string path = tempPath("vpsim_v3_stream_bounds.vptrace");
    ASSERT_TRUE(writeTraceV3(path, original, 512).isOk());

    StreamingTraceSource source;
    ASSERT_TRUE(source.open(path).isOk());
    TraceSpan block;
    std::uint64_t seen = 0;
    while (source.nextBlock(block, TraceSpan::noLimit)) {
        EXPECT_LE(block.size(), 512u)
            << "a delivery must stay within one decoded block";
        seen += block.size();
    }
    EXPECT_EQ(seen, original.size());
    std::remove(path.c_str());
}

TEST(StreamingSource, SalvageModeSkipsDamageAndKeepsStreaming)
{
    const auto original = captureWorkloadTrace("compress", 4000);
    const std::string path = tempPath("vpsim_v3_stream_salvage.vptrace");
    ASSERT_TRUE(writeTraceV3(path, original, 512).isOk());
    std::vector<unsigned char> bytes = slurp(path);
    std::uint32_t block_count = 0;
    const std::size_t offset = blockOffset(bytes, 1, nullptr,
                                           &block_count);
    bytes[offset + v3BlockFrameBytes + 3] ^= 0x10;
    spit(path, bytes);

    StreamingTraceSource strict;
    ASSERT_TRUE(strict.open(path).isOk());
    TraceSpan block;
    std::uint64_t strict_records = 0;
    while (strict.nextBlock(block))
        strict_records += block.size();
    EXPECT_FALSE(strict.status().isOk())
        << "strict streaming must surface the damage";
    EXPECT_EQ(strict.status().code(), StatusCode::kCorrupt);

    StreamingTraceSource salvage;
    StreamingOptions options;
    options.salvage = true;
    ASSERT_TRUE(salvage.open(path, options).isOk());
    std::uint64_t salvaged_records = 0;
    while (salvage.nextBlock(block))
        salvaged_records += block.size();
    EXPECT_TRUE(salvage.status().isOk());
    EXPECT_EQ(salvaged_records, original.size() - block_count);
    EXPECT_EQ(salvage.salvageReport().blocksQuarantined, 1u);
    std::remove(path.c_str());
}

TEST(StreamingSource, MemoryBudgetDegradesMmapAndWindow)
{
    const auto original = captureWorkloadTrace("go", 4000);
    const std::string path = tempPath("vpsim_v3_stream_budget.vptrace");
    ASSERT_TRUE(writeTraceV3(path, original, 256).isOk());

    StreamingTraceSource source;
    StreamingOptions options;
    options.preferMapped = true;
    options.windowBlocks = 8;
    options.memBudgetBytes = 1; // Any real process is over this.
    ASSERT_TRUE(source.open(path, options).isOk());
    EXPECT_TRUE(source.degradedToBuffered())
        << "over budget, the mmap backend must be abandoned first";

    TraceSpan block;
    std::vector<TraceRecord> got;
    while (source.nextBlock(block))
        got.insert(got.end(), block.begin(), block.end());
    EXPECT_EQ(source.windowBlocks(), 1u)
        << "over budget, decode-ahead must shrink to a single block";
    EXPECT_TRUE(source.status().isOk());
    expectSameRecords(got, original);
    std::remove(path.c_str());
}

TEST(StreamingSource, MissingFileReadsAsExhaustedWithStickyError)
{
    StreamingTraceSource source;
    const Status opened =
        source.open(tempPath("vpsim_v3_stream_missing.vptrace"));
    ASSERT_FALSE(opened.isOk());
    TraceSpan block;
    EXPECT_FALSE(source.nextBlock(block));
    EXPECT_FALSE(source.status().isOk());
    EXPECT_EQ(source.status().code(), StatusCode::kIo);
}

} // namespace
} // namespace vpsim
