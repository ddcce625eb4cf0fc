// Fixture-driven test for the pcube_lint_scan scanner.
//
// Every fixture under tests/lint_fixtures/ seeds violations with
// `// expect-lint: <check>` markers. The test runs the scanner over the
// corpus and requires an exact match: each marker reported exactly once
// with the expected check name, and nothing reported without a marker.
// Negative-control fixtures (no markers) must therefore stay silent.
//
// Usage: lint_fixture_test <path-to-pcube_lint_scan> <fixture-dir>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"

namespace {

namespace fs = std::filesystem;

std::string g_scanner;
std::string g_fixture_dir;

struct Finding {
  std::string file;  // basename-relative to the fixture dir
  int line = 0;
  std::string check;

  bool operator<(const Finding& o) const {
    return std::tie(file, line, check) < std::tie(o.file, o.line, o.check);
  }
  bool operator==(const Finding& o) const {
    return file == o.file && line == o.line && check == o.check;
  }
};

std::ostream& operator<<(std::ostream& os, const Finding& f) {
  return os << f.file << ":" << f.line << " [" << f.check << "]";
}

std::vector<fs::path> FixtureFiles() {
  std::vector<fs::path> files;
  for (const auto& entry : fs::recursive_directory_iterator(g_fixture_dir)) {
    if (!entry.is_regular_file()) continue;
    const auto ext = entry.path().extension();
    if (ext == ".cc" || ext == ".h") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::string RelativeName(const fs::path& p) {
  return fs::relative(p, g_fixture_dir).generic_string();
}

// Collect `// expect-lint: <check>` markers from a fixture file.
std::vector<Finding> ExpectedIn(const fs::path& path) {
  std::vector<Finding> expected;
  std::ifstream in(path);
  std::string line;
  int lineno = 0;
  const std::regex marker(R"(//\s*expect-lint:\s*([A-Za-z0-9_-]+))");
  while (std::getline(in, line)) {
    ++lineno;
    std::smatch m;
    std::string rest = line;
    while (std::regex_search(rest, m, marker)) {
      expected.push_back({RelativeName(path), lineno, m[1].str()});
      rest = m.suffix();
    }
  }
  return expected;
}

struct ScanResult {
  int exit_code = -1;
  std::vector<Finding> findings;
  std::string raw;
};

// Run the scanner over `files` (absolute paths) with extra flags; parse
// the `file:line:col: warning: msg [check]` diagnostics it emits.
ScanResult RunScanner(const std::vector<fs::path>& files,
                      const std::string& extra_flags) {
  std::ostringstream cmd;
  cmd << "'" << g_scanner << "' --quiet " << extra_flags;
  for (const auto& f : files) cmd << " '" << f.string() << "'";
  cmd << " 2>&1";

  ScanResult result;
  FILE* pipe = popen(cmd.str().c_str(), "r");
  if (pipe == nullptr) {
    ADD_FAILURE() << "popen failed for: " << cmd.str();
    return result;
  }
  char buf[4096];
  while (fgets(buf, sizeof(buf), pipe) != nullptr) result.raw += buf;
  int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;

  const std::regex diag(
      R"((.+):(\d+):(\d+): warning: .* \[([A-Za-z0-9_-]+)\])");
  std::istringstream lines(result.raw);
  std::string line;
  while (std::getline(lines, line)) {
    std::smatch m;
    if (!std::regex_match(line, m, diag)) continue;
    Finding f;
    f.file = RelativeName(fs::path(m[1].str()));
    f.line = std::stoi(m[2].str());
    f.check = m[4].str();
    result.findings.push_back(std::move(f));
  }
  std::sort(result.findings.begin(), result.findings.end());
  return result;
}

// Fixtures under server/ model wire-decode paths; the production default
// scope is src/server/, so the fixture run widens it.
const char kWireFlag[] = "--wire-paths=lint_fixtures/server/";

TEST(LintFixtures, EverySeededViolationReportedExactlyOnce) {
  const auto files = FixtureFiles();
  ASSERT_FALSE(files.empty()) << "no fixtures found under " << g_fixture_dir;

  std::vector<Finding> expected;
  for (const auto& f : files) {
    auto in_file = ExpectedIn(f);
    expected.insert(expected.end(), in_file.begin(), in_file.end());
  }
  std::sort(expected.begin(), expected.end());
  ASSERT_FALSE(expected.empty()) << "fixture corpus seeds no violations";

  const ScanResult scan = RunScanner(files, kWireFlag);
  EXPECT_EQ(scan.exit_code, 1) << "scanner should exit 1 when it finds "
                               << "violations\noutput:\n"
                               << scan.raw;

  std::multiset<Finding> got(scan.findings.begin(), scan.findings.end());
  for (const Finding& e : expected) {
    EXPECT_EQ(got.count(e), 1u) << "expected exactly one report for " << e
                                << "\noutput:\n"
                                << scan.raw;
  }
  for (const Finding& g : scan.findings) {
    const bool was_expected =
        std::binary_search(expected.begin(), expected.end(), g);
    EXPECT_TRUE(was_expected) << "false positive: " << g << "\noutput:\n"
                              << scan.raw;
  }
  EXPECT_EQ(scan.findings.size(), expected.size());
}

TEST(LintFixtures, NegativeControlsStaySilent) {
  std::vector<fs::path> clean;
  for (const auto& f : FixtureFiles()) {
    if (ExpectedIn(f).empty()) clean.push_back(f);
  }
  ASSERT_FALSE(clean.empty()) << "corpus has no negative-control fixtures";

  const ScanResult scan = RunScanner(clean, kWireFlag);
  EXPECT_EQ(scan.exit_code, 0) << scan.raw;
  EXPECT_TRUE(scan.findings.empty()) << scan.raw;
}

TEST(LintFixtures, ChecksFlagRestrictsReporting) {
  const auto files = FixtureFiles();
  const ScanResult scan = RunScanner(
      files, std::string(kWireFlag) + " --checks=pcube-mutation-entry");
  for (const Finding& f : scan.findings) {
    EXPECT_EQ(f.check, "pcube-mutation-entry") << scan.raw;
  }
  EXPECT_FALSE(scan.findings.empty())
      << "mutation fixtures should still report\n"
      << scan.raw;
}

TEST(LintFixtures, UsageErrorsExitTwo) {
  const ScanResult no_files = RunScanner({}, "");
  EXPECT_EQ(no_files.exit_code, 2) << no_files.raw;

  const ScanResult bad_check =
      RunScanner(FixtureFiles(), "--checks=no-such-check");
  EXPECT_EQ(bad_check.exit_code, 2) << bad_check.raw;
}

}  // namespace

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: %s <path-to-pcube_lint_scan> <fixture-dir>\n",
                 argv[0]);
    return 2;
  }
  g_scanner = argv[1];
  g_fixture_dir = argv[2];
  return RUN_ALL_TESTS();
}
