#include "trace/trace_v3.hpp"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "common/crc32.hpp"
#include "common/logging.hpp"
#include "trace/varint.hpp"

namespace vpsim
{

namespace
{

constexpr char v3Magic[4] = {'V', 'P', 'T', 'R'};
constexpr char blockMagic[4] = {'V', 'P', 'B', '3'};
constexpr char trailerMagic[4] = {'V', 'P', 'E', '3'};

/** Upper bound on one record's encoded size (4 deltas + result + 4). */
constexpr std::size_t maxEncodedRecordBytes = 5 * maxVarintBytes + 4;

/** Lower bound on the same: five one-byte varints + 4 fixed bytes. */
constexpr std::size_t minEncodedRecordBytes = 5 + 4;

/** Cap on records-per-block so a corrupt header can't balloon memory. */
constexpr std::uint32_t maxRecordsPerBlock = 1u << 22;

void
packU32(unsigned char *out, std::uint32_t value)
{
    for (int i = 0; i < 4; ++i)
        out[i] = static_cast<unsigned char>(value >> (8 * i));
}

void
packU64(unsigned char *out, std::uint64_t value)
{
    for (int i = 0; i < 8; ++i)
        out[i] = static_cast<unsigned char>(value >> (8 * i));
}

std::uint32_t
unpackU32(const unsigned char *in)
{
    std::uint32_t value = 0;
    for (int i = 0; i < 4; ++i)
        value |= static_cast<std::uint32_t>(in[i]) << (8 * i);
    return value;
}

std::uint64_t
unpackU64(const unsigned char *in)
{
    std::uint64_t value = 0;
    for (int i = 0; i < 8; ++i)
        value |= static_cast<std::uint64_t>(in[i]) << (8 * i);
    return value;
}

/**
 * Consult the injector's per-block counter. Control kinds behave as
 * everywhere else (sigint raises, throw throws); any other armed kind
 * reports true, which the caller turns into a forced CRC mismatch.
 */
bool
injectedBlockCorruption(const std::string &path)
{
    const io::FaultKind kind = io::faultInjector().next("block");
    if (kind == io::FaultKind::Sigint) {
        std::raise(SIGINT);
        return false;
    }
    if (kind == io::FaultKind::Throw)
        throw std::runtime_error("injected fault: block " + path);
    return kind != io::FaultKind::None;
}

/**
 * Encode @p records as one block payload at @p out, which must have
 * room for records.size() * maxEncodedRecordBytes bytes.
 *
 * @return The payload's encoded length.
 */
std::size_t
encodeBlockPayload(TraceSpan records, unsigned char *out)
{
    unsigned char *p = out;
    SeqNum prev_seq = 0;
    Addr prev_pc = 0;
    Addr prev_mem = 0;
    for (std::size_t i = 0; i < records.size(); ++i) {
        const TraceRecord &r = records[i];
        if (i == 0) {
            putVarint(p, r.seq);
            putVarint(p, r.pc);
        } else {
            putSignedVarint(p, static_cast<std::int64_t>(
                                   r.seq - (prev_seq + 1)));
            putSignedVarint(p, static_cast<std::int64_t>(r.pc - prev_pc));
        }
        putSignedVarint(p, static_cast<std::int64_t>(r.nextPc -
                                                     r.fallThrough()));
        if (i == 0)
            putVarint(p, r.memAddr);
        else
            putSignedVarint(p, static_cast<std::int64_t>(r.memAddr -
                                                         prev_mem));
        putVarint(p, r.result);
        p[0] = static_cast<unsigned char>(static_cast<unsigned char>(r.op) |
                                          (r.taken ? 0x80u : 0x00u));
        p[1] = r.rd;
        p[2] = r.rs1;
        p[3] = r.rs2;
        p += 4;
        prev_seq = r.seq;
        prev_pc = r.pc;
        prev_mem = r.memAddr;
    }
    return static_cast<std::size_t>(p - out);
}

/**
 * Decode one block payload of @p count records, handing each record to
 * @p emit in order. All deltas reset at the block boundary, so this
 * needs nothing from neighbouring blocks. False on any malformed
 * encoding (records already emitted are then garbage to the caller).
 *
 * This is the one varint walker: the record path emits straight into
 * its output array and the columnar path scatters into a TraceSoa.
 */
template <class Emit>
bool
decodeBlockPayload(const unsigned char *payload, std::size_t size,
                   std::uint32_t count, Emit &&emit)
{
    const unsigned char *p = payload;
    const unsigned char *end = payload + size;
    SeqNum prev_seq = 0;
    Addr prev_pc = 0;
    Addr prev_mem = 0;
    for (std::uint32_t i = 0; i < count; ++i) {
        TraceRecord r;
        std::uint64_t raw = 0;
        std::int64_t delta = 0;
        if (i == 0) {
            if (!getVarint(p, end, &raw))
                return false;
            r.seq = raw;
            if (!getVarint(p, end, &raw))
                return false;
            r.pc = raw;
        } else {
            if (!getSignedVarint(p, end, &delta))
                return false;
            r.seq = prev_seq + 1 + static_cast<std::uint64_t>(delta);
            if (!getSignedVarint(p, end, &delta))
                return false;
            r.pc = prev_pc + static_cast<std::uint64_t>(delta);
        }
        if (!getSignedVarint(p, end, &delta))
            return false;
        r.nextPc = r.pc + instBytes + static_cast<std::uint64_t>(delta);
        if (i == 0) {
            if (!getVarint(p, end, &raw))
                return false;
            r.memAddr = raw;
        } else {
            if (!getSignedVarint(p, end, &delta))
                return false;
            r.memAddr = prev_mem + static_cast<std::uint64_t>(delta);
        }
        if (!getVarint(p, end, &raw))
            return false;
        r.result = raw;
        if (end - p < 4)
            return false;
        const unsigned char op_taken = p[0];
        const unsigned char op_byte = op_taken & 0x7fu;
        if (op_byte >= static_cast<unsigned char>(OpCode::NumOpCodes))
            return false;
        r.op = static_cast<OpCode>(op_byte);
        r.taken = (op_taken & 0x80u) != 0;
        r.rd = p[1];
        r.rs1 = p[2];
        r.rs2 = p[3];
        p += 4;
        emit(r);
        prev_seq = r.seq;
        prev_pc = r.pc;
        prev_mem = r.memAddr;
    }
    // A valid block's payload is consumed exactly; slack means the
    // declared count or the payload length lied.
    return p == end;
}

Status
corrupt(const std::string &detail)
{
    return Status::error(StatusCode::kCorrupt, detail);
}

} // namespace

// ---------------------------------------------------------------------------
// SalvageRegistry

void
SalvageRegistry::note(const std::string &path,
                      const BlockSalvageReport &report)
{
    if (report.clean())
        return;
    MutexLock lock(mutex);
    sums.files += 1;
    sums.blocksQuarantined += report.blocksQuarantined;
    sums.recordsLost += report.recordsLost;
    sums.bytesSkipped += report.bytesSkipped;
    (void)path;
}

void
SalvageRegistry::addTotals(const Totals &other)
{
    MutexLock lock(mutex);
    sums.files += other.files;
    sums.blocksQuarantined += other.blocksQuarantined;
    sums.recordsLost += other.recordsLost;
    sums.bytesSkipped += other.bytesSkipped;
}

SalvageRegistry::Totals
SalvageRegistry::totals() const
{
    MutexLock lock(mutex);
    return sums;
}

void
SalvageRegistry::reset()
{
    MutexLock lock(mutex);
    sums = Totals();
}

SalvageRegistry &
salvageRegistry()
{
    static SalvageRegistry registry;
    return registry;
}

// ---------------------------------------------------------------------------
// TraceV3Writer

Status
TraceV3Writer::open(const std::string &path,
                    std::uint32_t records_per_block)
{
    panicIf(isOpen(), "TraceV3Writer reopened while open: " + path);
    panicIf(records_per_block == 0 ||
                records_per_block > maxRecordsPerBlock,
            "bad records-per-block for v3 writer");
    if (Status opened = file.openForWrite(path); !opened.isOk())
        return opened;
    recordsPerBlock = records_per_block;
    totalRecords = 0;
    totalBlocks = 0;
    pending.clear();

    unsigned char header[v3HeaderBytes] = {};
    std::memcpy(header, v3Magic, 4);
    header[4] = static_cast<unsigned char>(traceFormatVersionV3);
    packU32(header + 8, recordsPerBlock);
    packU32(header + 12, crc32(header, 12));
    if (Status put = file.writeAll(header, sizeof(header)); !put.isOk())
        return Status::error(put.code(),
                             "trace header: " + put.message());
    return Status::ok();
}

Status
TraceV3Writer::append(TraceSpan records)
{
    panicIf(!isOpen(), "append on closed TraceV3Writer");
    const io::FaultKind kind = io::faultInjector().next("capture");
    if (kind == io::FaultKind::Sigint)
        std::raise(SIGINT);
    else if (kind == io::FaultKind::Throw)
        throw std::runtime_error("injected fault: capture " +
                                 file.path());
    else if (kind != io::FaultKind::None) {
        const int err = (kind == io::FaultKind::Eio) ? EIO : ENOSPC;
        return Status::error(StatusCode::kIo,
                             "capture write error on " + file.path() +
                                 ": " + std::strerror(err) +
                                 " (injected)");
    }
    // Top up a partial block first, then encode whole blocks straight
    // from the caller's span: only a ragged tail is copied to pending.
    TraceSpan rest = records;
    if (!pending.empty()) {
        const std::size_t take = std::min<std::size_t>(
            recordsPerBlock - pending.size(), rest.size());
        pending.insert(pending.end(), rest.begin(), rest.begin() + take);
        rest = rest.subspan(take);
        if (pending.size() == recordsPerBlock) {
            if (Status put = putBlock(pending); !put.isOk())
                return put;
            pending.clear();
        }
    }
    for (; rest.size() >= recordsPerBlock;
         rest = rest.subspan(recordsPerBlock)) {
        if (Status put = putBlock(rest.first(recordsPerBlock));
            !put.isOk()) {
            return put;
        }
    }
    pending.insert(pending.end(), rest.begin(), rest.end());
    totalRecords += records.size();
    return Status::ok();
}

Status
TraceV3Writer::putBlock(TraceSpan block)
{
    panicIf(block.empty(), "putBlock with no records");
    // Sized for the worst case once and reused: every byte is written
    // through a raw pointer and only the encoded prefix goes to disk.
    const std::size_t worst = block.size() * maxEncodedRecordBytes;
    if (scratch.size() < worst)
        scratch.resize(worst);
    const std::size_t payload_bytes =
        encodeBlockPayload(block, scratch.data());

    unsigned char frame_header[v3BlockFrameBytes];
    std::memcpy(frame_header, blockMagic, 4);
    packU32(frame_header + 4, static_cast<std::uint32_t>(block.size()));
    packU32(frame_header + 8, static_cast<std::uint32_t>(payload_bytes));
    Crc32 crc;
    crc.update(frame_header, sizeof(frame_header));
    crc.update(scratch.data(), payload_bytes);
    unsigned char footer[4];
    packU32(footer, crc.value());

    if (Status put = file.writeAll(frame_header, sizeof(frame_header));
        !put.isOk()) {
        return Status::error(put.code(),
                             "trace block frame: " + put.message());
    }
    if (Status put = file.writeAll(scratch.data(), payload_bytes);
        !put.isOk()) {
        return Status::error(put.code(),
                             "trace block payload: " + put.message());
    }
    if (Status put = file.writeAll(footer, sizeof(footer)); !put.isOk())
        return Status::error(put.code(),
                             "trace block footer: " + put.message());
    ++totalBlocks;
    return Status::ok();
}

Status
TraceV3Writer::finish()
{
    panicIf(!isOpen(), "finish on closed TraceV3Writer");
    if (!pending.empty()) {
        if (Status put = putBlock(pending); !put.isOk())
            return put;
        pending.clear();
    }
    unsigned char trailer[v3TrailerBytes];
    std::memcpy(trailer, trailerMagic, 4);
    packU64(trailer + 4, totalRecords);
    packU64(trailer + 12, totalBlocks);
    packU32(trailer + 20, crc32(trailer, 20));
    if (Status put = file.writeAll(trailer, sizeof(trailer));
        !put.isOk()) {
        return Status::error(put.code(),
                             "trace trailer: " + put.message());
    }
    // fsync before the caller's atomic rename: a rename that lands
    // before the data does can publish a file whose tail is garbage.
    if (Status synced = file.sync(); !synced.isOk())
        return synced;
    file.close();
    return Status::ok();
}

void
TraceV3Writer::close()
{
    file.close();
    pending.clear();
    scratch.clear();
}

// ---------------------------------------------------------------------------
// TraceV3Reader

Status
TraceV3Reader::open(const std::string &path, const Options &options)
{
    panicIf(opened, "TraceV3Reader reopened while open: " + path);
    opts = options;
    filePath = path;
    done = false;
    cursor = 0;
    declaredRecords = 0;
    report = BlockSalvageReport();

    if (opts.preferMapped) {
        // Any map() failure (including injected open/mmap/read faults)
        // degrades to buffered reads rather than failing the file.
        if (!mapped.map(path).isOk())
            mapped.unmap();
    }
    if (!mapped.isMapped()) {
        if (Status got = file.openForRead(path); !got.isOk())
            return got;
    }

    bool at_end = false;
    if (Status got = readFrame(v3HeaderBytes, &at_end); !got.isOk())
        return Status::error(got.code(),
                             "trace header: " + got.message());
    if (at_end)
        return corrupt("trace header: unexpected end of file in " +
                       filePath + " (truncated?)");
    const unsigned char *h = frameData;
    if (std::memcmp(h, v3Magic, 4) != 0)
        return corrupt("bad trace file magic: " + filePath);
    if (h[4] != traceFormatVersionV3) {
        return corrupt("unsupported trace file version " +
                       std::to_string(h[4]) + " in " + filePath +
                       " (expected " +
                       std::to_string(traceFormatVersionV3) + ")");
    }
    if (unpackU32(h + 12) != crc32(h, 12))
        return corrupt("trace header checksum mismatch in " + filePath);
    blockRecords = unpackU32(h + 8);
    if (blockRecords == 0 || blockRecords > maxRecordsPerBlock) {
        return corrupt("bad records-per-block " +
                       std::to_string(blockRecords) + " in " + filePath);
    }
    opened = true;
    return Status::ok();
}

/**
 * Make the next @p size bytes of the stream available at frameData.
 * Sets *at_end (without error) when the stream is cleanly exhausted
 * before the first byte; a partial frame is kCorrupt truncation.
 */
Status
TraceV3Reader::readFrame(std::size_t size, bool *at_end)
{
    *at_end = false;
    if (mapped.isMapped()) {
        if (cursor == mapped.size()) {
            *at_end = true;
            return Status::ok();
        }
        if (mapped.size() - cursor < size) {
            return corrupt("unexpected end of file in " + filePath +
                           " (truncated?)");
        }
        frameData = mapped.data() + cursor;
        cursor += size;
        return Status::ok();
    }
    if (frame.size() < size)
        frame.resize(size);
    std::size_t have = 0;
    // Drain bytes resync() pushed back before touching the file.
    while (have < size && !pendback.empty()) {
        frame[have++] = pendback.front();
        pendback.erase(pendback.begin());
    }
    if (have < size) {
        if (have == 0 && file.atEof()) {
            *at_end = true;
            return Status::ok();
        }
        if (Status got = file.readExact(frame.data() + have,
                                        size - have);
            !got.isOk()) {
            return got;
        }
    }
    frameData = frame.data();
    return Status::ok();
}

/**
 * Salvage recovery: scan forward for the next block or trailer magic
 * and leave the stream positioned so the next readFrame() returns it.
 * Hitting end-of-stream is not an error — the caller sees at_end.
 */
Status
TraceV3Reader::resync()
{
    if (mapped.isMapped()) {
        const unsigned char *base = mapped.data();
        const std::uint64_t size = mapped.size();
        std::uint64_t pos = cursor;
        while (size - pos >= 4) {
            if (std::memcmp(base + pos, blockMagic, 4) == 0 ||
                std::memcmp(base + pos, trailerMagic, 4) == 0) {
                report.bytesSkipped += pos - cursor;
                cursor = pos;
                return Status::ok();
            }
            ++pos;
        }
        report.bytesSkipped += size - cursor;
        cursor = size;
        return Status::ok();
    }
    unsigned char window[4];
    std::size_t filled = 0;
    // Any pushed-back bytes rejoin the scan first.
    while (filled < 4 && !pendback.empty()) {
        window[filled++] = pendback.front();
        pendback.erase(pendback.begin());
    }
    for (;;) {
        while (filled < 4) {
            if (file.atEof())
                return Status::ok(); // Partial window: skipped bytes.
            unsigned char byte = 0;
            if (Status got = file.readExact(&byte, 1); !got.isOk())
                return got;
            window[filled++] = byte;
        }
        if (std::memcmp(window, blockMagic, 4) == 0 ||
            std::memcmp(window, trailerMagic, 4) == 0) {
            pendback.assign(window, window + 4);
            return Status::ok();
        }
        ++report.bytesSkipped;
        std::memmove(window, window + 1, 3);
        filled = 3;
    }
}

/**
 * One damaged block: fail the file in strict mode; in salvage mode
 * quarantine it (tallying @p declared_count as best-known loss),
 * resync, and tell the caller's loop to continue (outcome untouched).
 */
Status
TraceV3Reader::handleCorrupt(const Status &why,
                             std::uint64_t declared_count)
{
    if (!opts.salvage)
        return why;
    report.blocksQuarantined += 1;
    report.recordsLost += declared_count;
    return resync();
}

/**
 * The framing and validation loop behind nextBlock() and appendBlock():
 * finds the next intact block and hands its CRC-checked payload to
 * @p decode(payload, bytes, count), which returns false on a malformed
 * encoding. Damage handling is the same for every output layout.
 */
template <class Decode>
Status
TraceV3Reader::readBlock(Decode &&decode, Block *outcome)
{
    if (done) {
        *outcome = Block::kEnd;
        return Status::ok();
    }
    for (;;) {
        bool at_end = false;
        if (Status got = readFrame(v3BlockFrameBytes, &at_end);
            !got.isOk()) {
            // A partial frame header is truncation damage.
            if (got.code() == StatusCode::kCorrupt) {
                if (Status handled = handleCorrupt(
                        corrupt("trace block " +
                                std::to_string(report.blocksDelivered) +
                                ": unexpected end of file in " +
                                filePath + " (truncated?)"),
                        0);
                    !handled.isOk()) {
                    return handled;
                }
                continue;
            }
            return got;
        }
        if (at_end) {
            // Stream ended with no trailer at all.
            if (!opts.salvage) {
                return corrupt("unexpected end of file in " + filePath +
                               " (missing trailer?)");
            }
            done = true;
            *outcome = Block::kEnd;
            return Status::ok();
        }

        if (std::memcmp(frameData, trailerMagic, 4) == 0) {
            // The 12 frame bytes are the trailer's first half; copy
            // them before the next readFrame() recycles the buffer.
            unsigned char trailer[v3TrailerBytes];
            std::memcpy(trailer, frameData, v3BlockFrameBytes);
            if (Status got = readFrame(v3TrailerBytes -
                                           v3BlockFrameBytes,
                                       &at_end);
                !got.isOk() || at_end) {
                const Status why =
                    corrupt("trace trailer: unexpected end of file in " +
                            filePath + " (truncated?)");
                if (!got.isOk() && got.code() != StatusCode::kCorrupt)
                    return got;
                if (Status handled = handleCorrupt(why, 0);
                    !handled.isOk()) {
                    return handled;
                }
                if (at_end) {
                    done = true;
                    *outcome = Block::kEnd;
                    return Status::ok();
                }
                continue;
            }
            std::memcpy(trailer + v3BlockFrameBytes, frameData,
                        v3TrailerBytes - v3BlockFrameBytes);
            if (unpackU32(trailer + 20) != crc32(trailer, 20)) {
                if (Status handled = handleCorrupt(
                        corrupt("trace trailer checksum mismatch in " +
                                filePath),
                        0);
                    !handled.isOk()) {
                    return handled;
                }
                continue;
            }
            declaredRecords = unpackU64(trailer + 4);
            const std::uint64_t declared_blocks = unpackU64(trailer + 12);
            if (!opts.salvage) {
                if (declaredRecords != report.recordsDelivered ||
                    declared_blocks != report.blocksDelivered) {
                    return corrupt(
                        "trace trailer mismatch in " + filePath +
                        " (declared " + std::to_string(declaredRecords) +
                        " records in " + std::to_string(declared_blocks) +
                        " blocks, decoded " +
                        std::to_string(report.recordsDelivered) +
                        " in " + std::to_string(report.blocksDelivered) +
                        ")");
                }
                bool trailing = false;
                if (mapped.isMapped()) {
                    trailing = cursor != mapped.size();
                } else {
                    trailing = !pendback.empty() || !file.atEof();
                }
                if (trailing) {
                    return corrupt("trailing bytes after trailer in "
                                   "trace file: " +
                                   filePath);
                }
            } else if (declaredRecords > report.recordsDelivered) {
                // The trailer is the exact record count; trust it over
                // the per-block running estimate.
                report.recordsLost =
                    declaredRecords - report.recordsDelivered;
            }
            done = true;
            *outcome = Block::kEnd;
            return Status::ok();
        }

        if (std::memcmp(frameData, blockMagic, 4) != 0) {
            if (Status handled = handleCorrupt(
                    corrupt("bad block magic at block " +
                            std::to_string(report.blocksDelivered) +
                            " in " + filePath),
                    0);
                !handled.isOk()) {
                return handled;
            }
            continue;
        }

        unsigned char frame_header[v3BlockFrameBytes];
        std::memcpy(frame_header, frameData, v3BlockFrameBytes);
        const std::uint32_t count = unpackU32(frame_header + 4);
        const std::uint32_t payload_bytes = unpackU32(frame_header + 8);
        const bool sane =
            count >= 1 && count <= blockRecords &&
            payload_bytes >= count * minEncodedRecordBytes &&
            payload_bytes <= static_cast<std::uint64_t>(count) *
                                 maxEncodedRecordBytes;
        if (!sane) {
            if (Status handled = handleCorrupt(
                    corrupt("corrupt block frame at block " +
                            std::to_string(report.blocksDelivered) +
                            " in " + filePath),
                    0);
                !handled.isOk()) {
                return handled;
            }
            continue;
        }

        if (Status got = readFrame(payload_bytes + 4, &at_end);
            !got.isOk() || at_end) {
            if (!got.isOk() && got.code() != StatusCode::kCorrupt)
                return got;
            if (Status handled = handleCorrupt(
                    corrupt("trace block " +
                            std::to_string(report.blocksDelivered) +
                            ": unexpected end of file in " + filePath +
                            " (truncated?)"),
                    count);
                !handled.isOk()) {
                return handled;
            }
            if (at_end) {
                done = true;
                *outcome = Block::kEnd;
                return Status::ok();
            }
            continue;
        }
        const unsigned char *payload = frameData;

        Crc32 crc;
        crc.update(frame_header, sizeof(frame_header));
        crc.update(payload, payload_bytes);
        const std::uint32_t stored = unpackU32(payload + payload_bytes);
        bool mismatch = stored != crc.value();
        std::string injected_detail;
        if (!mismatch && injectedBlockCorruption(filePath)) {
            mismatch = true;
            injected_detail = " (injected)";
        }
        if (mismatch) {
            char detail[64];
            std::snprintf(detail, sizeof(detail),
                          "stored %08x, computed %08x", stored,
                          crc.value());
            if (Status handled = handleCorrupt(
                    corrupt("block checksum mismatch at block " +
                            std::to_string(report.blocksDelivered) +
                            " in " + filePath + " (" + detail + ")" +
                            injected_detail),
                    count);
                !handled.isOk()) {
                return handled;
            }
            continue;
        }

        if (!decode(payload, static_cast<std::size_t>(payload_bytes),
                    count)) {
            if (Status handled = handleCorrupt(
                    corrupt("corrupt record encoding in block " +
                            std::to_string(report.blocksDelivered) +
                            " of " + filePath),
                    count);
                !handled.isOk()) {
                return handled;
            }
            continue;
        }
        report.blocksDelivered += 1;
        report.recordsDelivered += count;
        *outcome = Block::kDelivered;
        return Status::ok();
    }
}

Status
TraceV3Reader::peekTrailerRecords(std::uint64_t *records) const
{
    panicIf(!opened, "peekTrailerRecords on closed TraceV3Reader");
    *records = 0;
    if (!mapped.isMapped() ||
        mapped.size() < v3HeaderBytes + v3TrailerBytes) {
        return Status::ok();
    }
    const unsigned char *t = mapped.data() + mapped.size() - v3TrailerBytes;
    if (std::memcmp(t, trailerMagic, 4) != 0 ||
        unpackU32(t + 20) != crc32(t, 20)) {
        return Status::ok();
    }
    const std::uint64_t declared = unpackU64(t + 4);
    const std::uint64_t most =
        (mapped.size() - v3HeaderBytes - v3TrailerBytes) /
        minEncodedRecordBytes;
    if (declared > most) {
        return corrupt("trace trailer mismatch in " + filePath +
                       " (declared " + std::to_string(declared) +
                       " records, but " + std::to_string(mapped.size()) +
                       " bytes hold at most " + std::to_string(most) + ")");
    }
    *records = declared;
    return Status::ok();
}

Status
TraceV3Reader::nextBlock(TraceSoa *out, Block *outcome)
{
    panicIf(!opened, "nextBlock on closed TraceV3Reader");
    panicIf(out == nullptr || outcome == nullptr,
            "nextBlock needs output parameters");
    return readBlock(
        [out](const unsigned char *payload, std::size_t size,
              std::uint32_t count) {
            out->clear();
            out->reserve(count);
            return decodeBlockPayload(
                payload, size, count,
                [out](const TraceRecord &r) { out->push_back(r); });
        },
        outcome);
}

Status
TraceV3Reader::appendBlock(std::vector<TraceRecord> *out, Block *outcome)
{
    panicIf(!opened, "appendBlock on closed TraceV3Reader");
    panicIf(out == nullptr || outcome == nullptr,
            "appendBlock needs output parameters");
    return readBlock(
        [out](const unsigned char *payload, std::size_t size,
              std::uint32_t count) {
            // Within a capacity reserved up front this never
            // reallocates; beyond it the vector grows geometrically.
            const std::size_t delivered = out->size();
            out->resize(delivered + count);
            TraceRecord *next = out->data() + delivered;
            if (decodeBlockPayload(
                    payload, size, count,
                    [&next](const TraceRecord &r) { *next++ = r; })) {
                return true;
            }
            out->resize(delivered);
            return false;
        },
        outcome);
}

void
TraceV3Reader::close()
{
    if (!opened)
        return;
    if (opts.salvage)
        salvageRegistry().note(filePath, report);
    mapped.unmap();
    file.close();
    pendback.clear();
    frame.clear();
    opened = false;
}

// ---------------------------------------------------------------------------
// Whole-file convenience wrappers

Status
writeTraceV3(const std::string &path,
             const std::vector<TraceRecord> &records,
             std::uint32_t records_per_block)
{
    TraceV3Writer writer;
    if (Status opened = writer.open(path, records_per_block);
        !opened.isOk()) {
        return opened;
    }
    if (Status put = writer.append(TraceSpan(records)); !put.isOk())
        return put;
    return writer.finish();
}

Status
readTraceV3(const std::string &path, std::vector<TraceRecord> *out,
            bool salvage, BlockSalvageReport *report_out)
{
    panicIf(out == nullptr, "readTraceV3 needs an output vector");
    out->clear();
    TraceV3Reader reader;
    TraceV3Reader::Options options;
    options.salvage = salvage;
    options.preferMapped = true;
    if (Status opened = reader.open(path, options); !opened.isOk())
        return opened;
    // Size the output once from the trailer, so every block decodes in
    // place with no reallocation. Without a usable count (buffered
    // backend, damaged tail) the vector grows geometrically instead.
    std::uint64_t expected = 0;
    if (Status peeked = reader.peekTrailerRecords(&expected);
        !peeked.isOk() && !salvage) {
        return peeked;
    }
    out->reserve(static_cast<std::size_t>(expected));
    for (;;) {
        TraceV3Reader::Block outcome = TraceV3Reader::Block::kEnd;
        if (Status got = reader.appendBlock(out, &outcome); !got.isOk())
            return got;
        if (outcome == TraceV3Reader::Block::kEnd)
            break;
    }
    // Quarantined blocks leave the trailer-sized capacity unused.
    if (salvage && out->capacity() != out->size())
        out->shrink_to_fit();
    if (report_out)
        *report_out = reader.salvageReport();
    reader.close();
    return Status::ok();
}

} // namespace vpsim
