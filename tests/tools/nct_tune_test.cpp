// Regression tests for the nct_tune CLI: damaged store files must
// produce a nonzero exit status with a clear diagnostic (version
// mismatch, truncation, trailing bytes); usage errors, malformed or
// out-of-range numbers and layouts the figure definitions cannot build
// exit 2; and the tune command round-trips its cache file.  The binary
// path is injected by CMake as NCT_TUNE_BIN.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "tune/cache.hpp"
#include "tool_run.hpp"

namespace nct {
namespace {

ToolRun run_tool(const std::string& args) { return run_binary(NCT_TUNE_BIN, args); }

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "nct_tune_" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
}

/// A healthy single-entry store produced by the library itself.
std::string healthy_store(const std::string& name) {
  const std::string path = temp_path(name);
  tune::PlanCache cache;
  tune::TuneKey key;
  key.bytes = {1, 2, 3, 4};
  key.hash = tune::stable_hash(key.bytes);
  tune::CacheEntry entry;
  entry.key = key.bytes;
  entry.choice.family = tune::Family::spt;
  entry.measured_seconds = 0.25;
  entry.algorithm = "seed";
  cache.insert(key, entry);
  EXPECT_TRUE(cache.save_file(path));
  return path;
}

TEST(NctTuneCli, NoArgumentsIsUsageExit2) {
  const auto r = run_tool("");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("usage:"), std::string::npos) << r.output;
}

TEST(NctTuneCli, UnknownSubcommandIsUsageExit2) {
  EXPECT_EQ(run_tool("frobnicate").exit_code, 2);
  EXPECT_EQ(run_tool("cache").exit_code, 2);
  EXPECT_EQ(run_tool("cache evict onlyfile").exit_code, 2);
}

TEST(NctTuneCli, CheckAcceptsAHealthyStore) {
  const std::string path = healthy_store("healthy.nct");
  const auto r = run_tool("cache check " + path);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("ok:"), std::string::npos) << r.output;
}

TEST(NctTuneCli, CheckRejectsMissingFile) {
  const auto r = run_tool("cache check " + temp_path("nowhere.nct"));
  EXPECT_NE(r.exit_code, 0);
  EXPECT_NE(r.output.find("cannot open"), std::string::npos) << r.output;
}

TEST(NctTuneCli, CheckRejectsBadMagic) {
  const std::string path = temp_path("magic.nct");
  write_file(path, "this is not a store");
  const auto r = run_tool("cache check " + path);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("bad magic"), std::string::npos) << r.output;
}

TEST(NctTuneCli, CheckRejectsVersionMismatch) {
  const std::string path = healthy_store("version.nct");
  std::string bytes = read_file(path);
  bytes[8] = 42;  // u32 version follows the 8-byte magic
  write_file(path, bytes);
  const auto r = run_tool("cache check " + path);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("version mismatch"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("v42"), std::string::npos) << r.output;
}

TEST(NctTuneCli, CheckRejectsTruncation) {
  const std::string path = healthy_store("trunc.nct");
  const std::string bytes = read_file(path);
  write_file(path, bytes.substr(0, bytes.size() - 3));
  const auto r = run_tool("cache check " + path);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("truncated"), std::string::npos) << r.output;
}

TEST(NctTuneCli, CheckRejectsTrailingBytes) {
  const std::string path = healthy_store("trailing.nct");
  write_file(path, read_file(path) + "junk");
  const auto r = run_tool("cache check " + path);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("trailing bytes"), std::string::npos) << r.output;
}

TEST(NctTuneCli, CheckRejectsCorruptEntry) {
  const std::string path = healthy_store("corrupt.nct");
  std::string bytes = read_file(path);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x20);
  write_file(path, bytes);
  const auto r = run_tool("cache check " + path);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("checksum"), std::string::npos) << r.output;
}

TEST(NctTuneCli, ListPrintsEntriesAndHashes) {
  const std::string path = healthy_store("list.nct");
  const auto r = run_tool("cache list " + path);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("1 entry"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("seed"), std::string::npos) << r.output;
}

TEST(NctTuneCli, ListReportsCacheStats) {
  const std::string path = healthy_store("list-stats.nct");
  const auto r = run_tool("cache list " + path);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  // The tolerant-load stats line: the healthy store merges its one entry.
  EXPECT_NE(r.output.find("stats:"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("1 loaded"), std::string::npos) << r.output;
}

TEST(NctTuneCli, EvictUnknownHashFails) {
  const std::string path = healthy_store("evict-miss.nct");
  const auto r = run_tool("cache evict " + path + " deadbeefdeadbeef");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("no entry"), std::string::npos) << r.output;
}

TEST(NctTuneCli, TuneWritesACacheThatHitsNextTime) {
  const std::string path = temp_path("e2e.nct");
  std::remove(path.c_str());
  const std::string args = "tune --machine ipsc --n 2 --lg 8 --layout 2d --cache " + path;
  const auto cold = run_tool(args);
  ASSERT_EQ(cold.exit_code, 0) << cold.output;
  EXPECT_NE(cold.output.find("searched"), std::string::npos) << cold.output;

  const auto check = run_tool("cache check " + path);
  EXPECT_EQ(check.exit_code, 0) << check.output;

  const auto warm = run_tool(args);
  ASSERT_EQ(warm.exit_code, 0) << warm.output;
  EXPECT_NE(warm.output.find("cache hit (0 engine measurements)"), std::string::npos)
      << warm.output;
}

TEST(NctTuneCli, TuneToleratesACorruptCacheFile) {
  const std::string path = temp_path("tolerant.nct");
  write_file(path, "garbage that is not a store");
  const auto r =
      run_tool("tune --machine ipsc --n 2 --lg 8 --layout 2d --cache " + path);
  EXPECT_EQ(r.exit_code, 0) << r.output;  // retunes instead of crashing
  EXPECT_NE(r.output.find("0 entries loaded"), std::string::npos) << r.output;
  // And the rewritten store is healthy again.
  EXPECT_EQ(run_tool("cache check " + path).exit_code, 0);
}

/// A syntactically-valid, empty store at on-disk version 1 (the format
/// before topology signatures entered the keys): magic, u32 version,
/// u64 entry count.
std::string v1_store(const std::string& name) {
  const std::string path = temp_path(name);
  std::string bytes = "NCTPLANC";
  const std::uint32_t version = 1;
  const std::uint64_t count = 0;
  bytes.append(reinterpret_cast<const char*>(&version), sizeof(version));
  bytes.append(reinterpret_cast<const char*>(&count), sizeof(count));
  write_file(path, bytes);
  return path;
}

TEST(NctTuneCli, CheckNamesBothVersionsOnAV1Store) {
  // Version 2 added the machine's topology signature to every key; a v1
  // store must be reported as such, naming both the found and the
  // expected version so the operator knows retuning is intentional.
  const auto r = run_tool("cache check " + v1_store("v1.nct"));
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("version mismatch"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("store is v1"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("expects v2"), std::string::npos) << r.output;
}

TEST(NctTuneCli, TuneRetunesOverAV1StoreAndUpgradesIt) {
  // The tolerant loader treats a stale-version store as empty: tune
  // succeeds, retunes from scratch, and rewrites the file at the
  // current version.
  const std::string path = v1_store("v1-upgrade.nct");
  const auto r =
      run_tool("tune --machine ipsc --n 2 --lg 8 --layout 2d --cache " + path);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("0 entries loaded"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("searched"), std::string::npos) << r.output;

  const auto check = run_tool("cache check " + path);
  EXPECT_EQ(check.exit_code, 0) << check.output;
  EXPECT_NE(check.output.find("ok:"), std::string::npos) << check.output;

  // The upgraded file really is v2 on disk.
  const std::string bytes = read_file(path);
  ASSERT_GE(bytes.size(), 12u);
  std::uint32_t version = 0;
  std::memcpy(&version, bytes.data() + 8, sizeof(version));
  EXPECT_EQ(version, tune::kStoreVersion);
  EXPECT_EQ(version, 2u);
}

TEST(NctTuneCli, KernelPrintsAStageTableWhereTunedBeatsNaive) {
  const auto r = run_tool("kernel --kernel hsmm --n 3 --matrix 32");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("hsmm nm=32"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("transpose-B"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("total (comm)"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("placement verified"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("matches host reference"), std::string::npos) << r.output;
  // At least one stage's tuned plan is not the naive routed one.
  EXPECT_TRUE(r.output.find("exchange") != std::string::npos ||
              r.output.find("ring") != std::string::npos ||
              r.output.find("B=") != std::string::npos)
      << r.output;
}

TEST(NctTuneCli, KernelCacheRoundTripsPerStageEntries) {
  const std::string path = temp_path("kernel_cache.plan");
  std::remove(path.c_str());
  const auto cold = run_tool("kernel --kernel boolmm --n 2 --matrix 128 --cache " + path);
  ASSERT_EQ(cold.exit_code, 0) << cold.output;
  EXPECT_NE(cold.output.find("measured"), std::string::npos) << cold.output;
  const auto warm = run_tool("kernel --kernel boolmm --n 2 --matrix 128 --cache " + path);
  ASSERT_EQ(warm.exit_code, 0) << warm.output;
  EXPECT_NE(warm.output.find("cache"), std::string::npos) << warm.output;
  EXPECT_EQ(warm.output.find("measured"), std::string::npos) << warm.output;
  std::remove(path.c_str());
}

TEST(NctTuneCli, KernelRejectsUnknownKernelName) {
  const auto r = run_tool("kernel --kernel nope --n 2");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("unknown kernel"), std::string::npos) << r.output;
}

/// Every (args, expected diagnostic) case must exit 2.
void expect_usage_errors(const std::vector<std::pair<std::string, std::string>>& cases) {
  for (const auto& [args, expect] : cases) expect_usage_error(NCT_TUNE_BIN, args, expect);
}

TEST(NctTuneCli, TuneRejectsMalformedNumbers) {
  const std::string tune = "tune --machine cm --layout 1d ";
  expect_usage_errors({
      {tune + "--n x", "--n expects an integer in [0, 20], got 'x'"},
      {tune + "--n 4x", "got '4x'"},
      {tune + "--n ''", "got ''"},
      {tune + "--lg 1e3", "--lg expects"},
      {tune + "--jobs 2.5", "--jobs expects"},
      {tune + "--fail-link 3:y", "--fail-link DIM expects"},
      {tune + "--fail-link z:1", "--fail-link NODE expects"},
      {"kernel --matrix 12abc", "--matrix expects"},
      {"cache evict somefile.nct notahash", "KEYHASH expects a hex integer"},
  });
}

TEST(NctTuneCli, TuneRejectsOutOfRangeNumbers) {
  const std::string tune = "tune --machine cm --layout 1d ";
  expect_usage_errors({
      {tune + "--lg 70", "--lg expects an integer in [0, 24], got '70'"},
      {tune + "--n 70", "--n expects"},
      {tune + "--n -2", "got '-2'"},
      {tune + "--jobs 100000", "--jobs expects an integer in [0, 256]"},
      {"kernel --n 12", "kernel needs --n <= 10"},
      {"kernel --bundle 99999", "--bundle expects"},
  });
}

TEST(NctTuneCli, RejectsLayoutsTheFiguresCannotBuild) {
  expect_usage_errors({
      {"tune --machine cm --layout 1d --n 4 --lg 4", "1d layout with n=4, lg=4 needs 2n <= lg"},
      {"tune --machine cm --layout 2d --n 3", "2d layout with n=3, lg=14 needs an even n"},
      {"tune --machine cm --layout 2d --n 8 --lg 6", "needs n <= lg"},
      {"tune --layout 3d", "unknown layout '3d'"},
      {"tune --layout 1d-cyclic", "unknown layout '1d-cyclic'"},
      {"buffer --n 6 --lg 5", "1d-cyclic layout with n=6, lg=5 needs n <= lg"},
      {"crossover --lg 8", "1d layout with n=6, lg=8"},
      {"crossover --topology --lg 5", "2d layout with n=6, lg=5"},
  });
}

}  // namespace
}  // namespace nct
