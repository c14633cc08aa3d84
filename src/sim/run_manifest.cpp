#include "sim/run_manifest.hpp"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/crc32.hpp"
#include "common/logging.hpp"
#include "trace/trace_v3.hpp"

#ifndef VPSIM_GIT_DESCRIBE
#define VPSIM_GIT_DESCRIBE "unknown"
#endif

namespace vpsim
{

namespace
{

constexpr char manifestSchema[] = "vpsim-manifest 3";
constexpr char signingHeader[] = "vpsim-manifest-signing-v3";

/** One manifest field: a scalar, or a list signed one line per item. */
struct Field
{
    std::string key;
    std::vector<std::string> values;
    /** JSON string (quoted) rather than JSON number. */
    bool quoted = true;
    bool list = false;
};

std::string
jsonEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (const char ch : text) {
        switch (ch) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(ch) < 0x20) {
                char buffer[8];
                std::snprintf(buffer, sizeof(buffer), "\\u%04x", ch);
                out += buffer;
            } else {
                out += ch;
            }
        }
    }
    return out;
}

std::string
jsonValue(const std::string &value, bool quoted)
{
    return quoted ? '"' + jsonEscape(value) + '"' : value;
}

std::string
hex32(std::uint32_t value)
{
    char buffer[16];
    std::snprintf(buffer, sizeof(buffer), "%08x", value);
    return buffer;
}

std::string
hex16(std::uint64_t value)
{
    char buffer[24];
    std::snprintf(buffer, sizeof(buffer), "%016" PRIx64, value);
    return buffer;
}

} // namespace

std::string
buildGitDescribe()
{
    return VPSIM_GIT_DESCRIBE;
}

void
writeRunManifest(const Options &options, const std::string &csv_path,
                 const FleetLineage *fleet)
{
    // Checksum the CSV exactly as it sits on disk (the bench may have
    // appended to a file older runs started).
    std::ifstream csv(csv_path, std::ios::binary);
    fatalIf(!csv, "cannot read back CSV " + csv_path +
                      " for its manifest");
    std::vector<char> bytes{std::istreambuf_iterator<char>(csv),
                            std::istreambuf_iterator<char>()};
    fatalIf(csv.bad(), "error reading CSV " + csv_path);
    const std::uint32_t csv_crc = crc32(bytes.data(), bytes.size());

    std::vector<Field> fields;
    const auto text = [&fields](const char *key, std::string value) {
        fields.push_back({key, {std::move(value)}, true, false});
    };
    const auto number = [&fields](const char *key, std::uint64_t value) {
        fields.push_back({key, {std::to_string(value)}, false, false});
    };
    text("schema", manifestSchema);
    text("gitDescribe", buildGitDescribe());
    number("traceFormatVersion", traceFormatVersionV3);
    text("checkInvariants", options.getString("check-invariants"));
    text("crossCheck", options.getString("cross-check"));
    text("jobTimeout", options.getString("job-timeout"));
    text("salvageBlocks", options.getBool("salvage-blocks") ? "1" : "0");
    // The signed salvage tally is what makes block-level loss
    // auditable: a figure produced from a damaged trace carries the
    // damage in its provenance instead of passing as clean. A fleet
    // folds its workers' totals into this process's registry.
    const SalvageRegistry::Totals salvage = salvageRegistry().totals();
    number("salvagedFiles", salvage.files);
    number("salvagedBlocks", salvage.blocksQuarantined);
    number("salvagedRecordsLost", salvage.recordsLost);
    if (fleet != nullptr) {
        text("fleetHash", hex16(fleet->fleetHash));
        number("rows", fleet->rows);
        number("cols", fleet->cols);
        number("cells", fleet->rows * fleet->cols);
        number("retries", fleet->retries);
        number("bisections", fleet->bisections);
        number("reusedCells", fleet->reusedCells);
        Field quarantined{"quarantinedCells", {}, false, true};
        for (const std::uint32_t cell : fleet->quarantinedCells)
            quarantined.values.push_back(std::to_string(cell));
        fields.push_back(std::move(quarantined));
        fields.push_back({"shards", fleet->shards, true, true});
    }
    text("fingerprint",
         fleet != nullptr ? fleet->fingerprint : options.fingerprint());
    text("csvFile", csv_path);
    number("csvBytes", bytes.size());
    text("csvCrc32", hex32(csv_crc));

    // Render the JSON and the canonical signing string from the same
    // field list; scripts/verify_manifest.py rebuilds the signing
    // string from the parsed JSON in document order.
    std::string signing = std::string(signingHeader) + '\n';
    std::string json = "{\n";
    for (const Field &field : fields) {
        for (const std::string &value : field.values)
            signing += field.key + '=' + value + '\n';
        json += "  \"" + field.key + "\": ";
        if (!field.list) {
            json += jsonValue(field.values.front(), field.quoted);
        } else {
            json += '[';
            for (std::size_t i = 0; i < field.values.size(); ++i) {
                if (i > 0)
                    json += ", ";
                json += jsonValue(field.values[i], field.quoted);
            }
            json += ']';
        }
        json += ",\n";
    }
    json += "  \"signature\": \"crc32:" +
            hex32(crc32(signing.data(), signing.size())) + "\"\n}\n";

    const std::string manifest_path = csv_path + ".manifest.json";
    std::ofstream out(manifest_path, std::ios::trunc);
    fatalIf(!out, "cannot write manifest " + manifest_path);
    out << json;
    out.flush();
    fatalIf(!out, "error writing manifest " + manifest_path);
}

} // namespace vpsim
