// pcube — command-line front end for the P-Cube library.
//
//   pcube generate --rows N [--bool K --pref M --card C --dist D --seed S]
//                  --out data.csv
//       Emit a synthetic CSV (boolean columns first, then preference
//       columns; distribution D in {uniform, correlated, anticorrelated}).
//
//   pcube build --csv data.csv --spec bbbppp [--header] --db data.pcube
//       Import a CSV (spec: 'b' boolean column, 'p' preference column,
//       '-' skip), build the heap file, boolean B+-trees, R*-tree and
//       P-Cube, and persist everything to one file.
//
//   pcube info --db data.pcube
//       Print the stored relation and structure statistics.
//
//   pcube explain --db data.pcube [--where ...]
//       Print the planner's cost estimates and plan choice for a query.
//
//   pcube skyline --db data.pcube [--where "col=value,col=value"]
//                 [--band K] [--origin x,y,...] [--limit N]
//       Signature-pruned skyline / k-skyband / dynamic skyline.
//
//   pcube topk --db data.pcube --k N [--where ...]
//              (--weights w1,w2,... | --target t1,... [--tweights w1,...])
//       Signature-pruned top-k under a linear function (--weights) or a
//       weighted squared distance to a target point (--target).
//
//   pcube ingest (--db data.pcube | --connect HOST:PORT)
//               [--csv rows.csv --spec bbbppp [--header]]
//               [--delete tid,tid,...] [--batch N] [--ack applied|durable]
//               [--tenant T] [--save]
//       Stream mutations through the write path (DESIGN.md §15): CSV rows
//       become WriteBatch inserts (chunked --batch rows per Apply, default
//       1024), --delete tids become deletes. With --db the batches commit
//       through the local WAL (--save additionally checkpoints into the
//       page file); with --connect they travel as kWrite frames to a
//       running `pcube serve`. Prints sustained rows/sec and commit stats.
//
//   pcube verify --db data.pcube
//       Full integrity walk: validate the WAL sidecar first (record CRCs,
//       LSN monotonicity, torn tail — inspected BEFORE opening, since Open
//       replays and heals the log), then re-read every page through the
//       checksum layer, check B+-tree key order, R-tree structure and
//       signature assembly. Exit 1 (listing the problems) if anything fails.
//
//   pcube corrupt --db data.pcube [--kind signature|rtree|table|catalog]
//                 [--page N] [--offset K] [--wal]
//       Deliberately flip one byte per targeted page in the raw file
//       (testing tool; `verify` and checksummed reads must catch it).
//       --wal targets the WAL sidecar (<db>.wal) instead of the page file.
//
//   pcube serve --db data.pcube [--port P] [--workers N]
//               [--queue-cap N] [--tenant-rate R] [--tenant-burst B]
//               [--max-conns N] [--query-log FILE]
//       Serve the database over TCP (127.0.0.1 only) with multi-tenant
//       admission control: per-tenant token-bucket quotas, a bounded
//       request queue and early load shedding (DESIGN.md §14). Runs until
//       SIGINT/SIGTERM.
//
//   pcube query --connect HOST:PORT [--tenant T] [--deadline-ms N]
//               [--where "0=#3,..."] [--limit N]
//               (--k N (--weights w,.. | --target t,.. [--tweights w,..])
//                | [--band K] [--origin x,..])
//       Client mode: send one query to a running `pcube serve` and print
//       the streamed answer. No database file is opened, so predicates use
//       raw dimension indices and "#code" values.
//
// Both query commands accept:
//   --plan auto|signature|boolean   plan selection (default: auto, the cost
//                                   model picks; see `explain`. A forced
//                                   plan bypasses the result cache)
//   --deadline-ms N                 per-query deadline; exceeding it fails
//                                   the query with a Timeout status
//   --metrics                       append a Prometheus-style text dump of
//                                   every engine, cache and buffer-pool
//                                   metric
//   --query-log FILE                write one JSONL record (trace id, plan,
//                                   cache outcome, counters, per-stage
//                                   spans) to FILE
//
// Every command that opens a database accepts:
//   --fault-plan SPEC               inject storage faults while queries run,
//                                   e.g. "seed=7,read_error=0.01,bit_flip=
//                                   0.001" (see storage/fault_injection.h)
//   --cache MB                      budget of the semantic result cache
//                                   (default 16)
//   --no-cache                      disable the result cache
//
// Predicate values use the stored dictionary when the database came from a
// CSV import ("color=red"); raw codes also work ("color=#3" or "2=#3").
//
// Any flag not in kFlags below is rejected with exit code 2, so a typo
// such as --wher fails loudly instead of answering an unfiltered query.
#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>

#include "common/random.h"
#include "common/simd/simd.h"
#include "common/timer.h"
#include "data/csv.h"
#include "data/generators.h"
#include "query/write_batch.h"
#include "server/client.h"
#include "server/server.h"
#include "storage/wal.h"
#include "workbench/planner.h"
#include "workbench/workbench.h"

using namespace pcube;

namespace {

// ------------------------------------------------------------- arg parsing

/// Every flag any command reads: the single list Args validates against.
constexpr std::string_view kFlags[] = {
    "ack", "band", "batch", "bool", "cache", "card", "connect", "csv", "db",
    "deadline-ms", "delete", "dist", "fault-plan", "header", "k", "kind",
    "limit", "max-conns", "metrics", "no-cache", "offset", "origin", "out",
    "page", "plan", "port", "pref", "query-log", "queue-cap", "rows", "save",
    "seed", "spec", "target", "tenant", "tenant-burst", "tenant-rate",
    "tweights", "wal", "weights", "where", "workers",
};

bool KnownFlag(std::string_view key) {
  return std::find(std::begin(kFlags), std::end(kFlags), key) !=
         std::end(kFlags);
}

class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) {
        std::fprintf(stderr, "unexpected argument '%s'\n", argv[i]);
        std::exit(2);
      }
      key = key.substr(2);
      if (!KnownFlag(key)) {
        std::fprintf(stderr, "unknown flag '%s' (see `pcube --help`)\n",
                     argv[i]);
        std::exit(2);
      }
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[key] = argv[++i];
      } else {
        values_[key] = "";  // boolean flag
      }
    }
  }

  bool Has(const std::string& key) const {
    PCUBE_CHECK(KnownFlag(key)) << "--" << key << " missing from kFlags";
    return values_.count(key) > 0;
  }

  std::string Get(const std::string& key, const std::string& fallback = "") const {
    return Has(key) ? values_.at(key) : fallback;
  }

  std::string Require(const std::string& key) const {
    if (!Has(key)) {
      std::fprintf(stderr, "missing required --%s\n", key.c_str());
      std::exit(2);
    }
    return values_.at(key);
  }

  int64_t GetInt(const std::string& key, int64_t fallback) const {
    return Has(key) ? std::strtoll(values_.at(key).c_str(), nullptr, 10)
                    : fallback;
  }

 private:
  std::map<std::string, std::string> values_;
};

std::vector<std::string> SplitList(const std::string& s, char sep = ',') {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, sep)) out.push_back(item);
  return out;
}

std::vector<double> ParseDoubles(const std::string& s) {
  std::vector<double> out;
  for (const std::string& item : SplitList(s)) {
    out.push_back(std::strtod(item.c_str(), nullptr));
  }
  return out;
}

[[noreturn]] void Die(const Status& st) {
  std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
  std::exit(1);
}

template <typename T>
T Unwrap(Result<T> r) {
  if (!r.ok()) Die(r.status());
  return std::move(*r);
}

// --------------------------------------------------------------- database

std::unique_ptr<Workbench> OpenDb(const Args& args) {
  WorkbenchOptions options;
  if (args.Has("fault-plan")) {
    options.fault_plan = Unwrap(FaultPlan::Parse(args.Get("fault-plan")));
  }
  if (args.Has("no-cache")) {
    options.result_cache_mb = 0;
  } else if (args.Has("cache")) {
    options.result_cache_mb = static_cast<size_t>(args.GetInt("cache", 16));
  }
  return Unwrap(Workbench::Open(args.Require("db"), options));
}

/// Resolves "name=value" predicates against the stored dictionaries; names
/// may be dimension indices, values may be "#<code>".
PredicateSet ParseWhere(const Workbench& wb, const std::string& where) {
  PredicateSet preds;
  if (where.empty()) return preds;
  const auto& dicts = wb.dictionaries();
  for (const std::string& term : SplitList(where)) {
    size_t eq = term.find('=');
    if (eq == std::string::npos) {
      std::fprintf(stderr, "bad predicate '%s' (want col=value)\n",
                   term.c_str());
      std::exit(2);
    }
    std::string col = term.substr(0, eq);
    std::string value = term.substr(eq + 1);
    int dim = -1;
    // Column: numeric index, or a dictionary... columns have no stored
    // names; accept indices only unless value lookup disambiguates.
    char* end = nullptr;
    long parsed = std::strtol(col.c_str(), &end, 10);
    if (end != nullptr && *end == '\0') {
      dim = static_cast<int>(parsed);
    }
    uint32_t code = 0;
    bool have_code = false;
    if (!value.empty() && value[0] == '#') {
      code = static_cast<uint32_t>(std::strtoul(value.c_str() + 1, nullptr, 10));
      have_code = true;
    }
    if (!have_code) {
      // Dictionary lookup: in the named dimension, or in all of them.
      for (size_t d = 0; d < dicts.size(); ++d) {
        if (dim >= 0 && static_cast<int>(d) != dim) continue;
        for (size_t v = 0; v < dicts[d].size(); ++v) {
          if (dicts[d][v] == value) {
            dim = static_cast<int>(d);
            code = static_cast<uint32_t>(v);
            have_code = true;
            break;
          }
        }
        if (have_code) break;
      }
    }
    if (dim < 0 || !have_code) {
      std::fprintf(stderr, "cannot resolve predicate '%s'\n", term.c_str());
      std::exit(2);
    }
    preds.Add({dim, code});
  }
  return preds;
}

const char* DictValue(const Workbench& wb, int dim, uint32_t code) {
  static std::string scratch;
  const auto& dicts = wb.dictionaries();
  if (static_cast<size_t>(dim) < dicts.size() &&
      code < dicts[dim].size()) {
    return dicts[dim][code].c_str();
  }
  scratch.assign(1, '#');
  scratch += std::to_string(code);
  return scratch.c_str();
}

void PrintTuple(const Workbench& wb, TupleId tid, double score,
                bool with_score) {
  const Dataset& data = wb.data();
  std::printf("  #%-8llu", static_cast<unsigned long long>(tid));
  for (int d = 0; d < data.num_bool(); ++d) {
    std::printf(" %s", DictValue(wb, d, data.BoolValue(tid, d)));
  }
  std::printf(" |");
  for (int d = 0; d < data.num_pref(); ++d) {
    std::printf(" %.4f", data.PrefValue(tid, d));
  }
  if (with_score) std::printf("  (score %.6f)", score);
  std::printf("\n");
}

PlanHint ParsePlanHint(const Args& args) {
  std::string plan = args.Get("plan", "auto");
  if (plan == "signature") return PlanHint::kSignature;
  if (plan == "boolean") return PlanHint::kBooleanFirst;
  if (plan == "auto") return PlanHint::kAuto;
  std::fprintf(stderr, "unknown --plan '%s' (auto|signature|boolean)\n",
               plan.c_str());
  std::exit(2);
}

/// Shared epilogue of the query commands: the I/O line, the optional JSONL
/// query-log record and the optional metrics dump.
void FinishQuery(Workbench* wb, const QueryRequest& request,
                 const QueryResponse& resp, const Args& args) {
  std::printf("disk: %llu page reads (%llu r-tree, %llu signature)",
              static_cast<unsigned long long>(resp.io.TotalReads()),
              static_cast<unsigned long long>(
                  resp.io.ReadCount(IoCategory::kRtreeBlock)),
              static_cast<unsigned long long>(
                  resp.io.ReadCount(IoCategory::kSignature)));
  if (resp.cache != CacheOutcome::kNone) {
    std::printf("  [cache: %s]", CacheOutcomeName(resp.cache));
  }
  std::printf("\n");
  if (args.Has("query-log")) {
    auto log = Unwrap(QueryLog::OpenFile(args.Get("query-log")));
    log->Append(QueryLogRecord(request, resp));
  }
  if (args.Has("metrics")) {
    MetricsRegistry& registry = MetricsRegistry::Default();
    wb->ExportMetrics(&registry);
    std::printf("\n%s", registry.RenderText().c_str());
  }
}

// --------------------------------------------------------------- commands

int CmdGenerate(const Args& args) {
  SyntheticConfig config;
  config.num_tuples = static_cast<uint64_t>(args.GetInt("rows", 10000));
  config.num_bool = static_cast<int>(args.GetInt("bool", 3));
  config.num_pref = static_cast<int>(args.GetInt("pref", 3));
  config.bool_cardinality = static_cast<uint32_t>(args.GetInt("card", 100));
  config.seed = static_cast<uint64_t>(args.GetInt("seed", 42));
  std::string dist = args.Get("dist", "uniform");
  if (dist == "correlated") {
    config.dist = PrefDistribution::kCorrelated;
  } else if (dist == "anticorrelated") {
    config.dist = PrefDistribution::kAntiCorrelated;
  } else if (dist != "uniform") {
    std::fprintf(stderr, "unknown --dist '%s'\n", dist.c_str());
    return 2;
  }
  Dataset data = GenerateSynthetic(config);

  std::ofstream out(args.Require("out"));
  if (!out.is_open()) {
    std::fprintf(stderr, "cannot open output file\n");
    return 1;
  }
  for (int d = 0; d < config.num_bool; ++d) out << "b" << d << ",";
  for (int d = 0; d < config.num_pref; ++d) {
    out << "p" << d << (d + 1 < config.num_pref ? "," : "\n");
  }
  for (TupleId t = 0; t < data.num_tuples(); ++t) {
    for (int d = 0; d < config.num_bool; ++d) {
      out << "v" << data.BoolValue(t, d) << ",";
    }
    for (int d = 0; d < config.num_pref; ++d) {
      out << data.PrefValue(t, d) << (d + 1 < config.num_pref ? "," : "\n");
    }
  }
  std::printf("wrote %llu rows to %s (spec: %s)\n",
              static_cast<unsigned long long>(data.num_tuples()),
              args.Get("out").c_str(),
              (std::string(config.num_bool, 'b') +
               std::string(config.num_pref, 'p'))
                  .c_str());
  return 0;
}

int CmdBuild(const Args& args) {
  CsvTable table = Unwrap(ReadCsvFile(args.Require("csv"),
                                      args.Require("spec"),
                                      args.Has("header")));
  std::printf("imported %llu rows: %d boolean dims, %d preference dims\n",
              static_cast<unsigned long long>(table.data.num_tuples()),
              table.data.num_bool(), table.data.num_pref());
  WorkbenchOptions options;
  options.file_path = args.Require("db");
  auto wb = Unwrap(Workbench::Build(std::move(table.data), options));
  wb->set_dictionaries(std::move(table.dictionaries));
  if (Status st = wb->Save(); !st.ok()) Die(st);
  std::printf(
      "built %s: %llu pages (heap %llu, r-tree %llu, p-cube %llu), %llu "
      "signature cells\n",
      args.Get("db").c_str(),
      static_cast<unsigned long long>(wb->page_manager()->NumPages()),
      static_cast<unsigned long long>(wb->table()->num_pages()),
      static_cast<unsigned long long>(wb->tree()->num_pages()),
      static_cast<unsigned long long>(wb->cube()->MaterializedPages()),
      static_cast<unsigned long long>(wb->cube()->num_cells()));
  return 0;
}

int CmdInfo(const Args& args) {
  auto wb = OpenDb(args);
  const Dataset& data = wb->data();
  std::printf("%s\n", args.Get("db").c_str());
  std::printf("  tuples:           %llu\n",
              static_cast<unsigned long long>(data.num_tuples()));
  std::printf("  boolean dims:     %d (cardinalities:", data.num_bool());
  for (uint32_t card : data.schema().bool_cardinality) std::printf(" %u", card);
  std::printf(")\n");
  std::printf("  preference dims:  %d\n", data.num_pref());
  std::printf("  r-tree:           height %d, fanout %u, %llu pages\n",
              wb->tree()->height(), wb->tree()->fanout(),
              static_cast<unsigned long long>(wb->tree()->num_pages()));
  std::printf("  p-cube:           %llu cells, %llu pages\n",
              static_cast<unsigned long long>(wb->cube()->num_cells()),
              static_cast<unsigned long long>(wb->cube()->MaterializedPages()));
  std::printf("  total file:       %.2f MB\n",
              static_cast<double>(wb->page_manager()->SizeBytes()) / 1e6);
  return 0;
}

int CmdSkyline(const Args& args) {
  auto wb = OpenDb(args);
  PredicateSet preds = ParseWhere(*wb, args.Get("where"));
  SkylineQueryOptions options;
  options.skyband_k = static_cast<size_t>(args.GetInt("band", 1));
  if (args.Has("origin")) {
    for (double v : ParseDoubles(args.Get("origin"))) {
      options.origin.push_back(static_cast<float>(v));
    }
  }
  QueryRequest request = QueryRequest::Skyline(preds, options);
  request.hint = ParsePlanHint(args);
  request.deadline_ms = static_cast<uint64_t>(args.GetInt("deadline-ms", 0));
  auto resp = Unwrap(wb->Run(request));
  if (resp.degraded) {
    std::printf("degraded: %s; answered via boolean-first fallback\n",
                resp.degraded_reason.c_str());
  }
  std::printf("%zu result(s) for %s [%s plan]\n", resp.tids.size(),
              preds.empty() ? "(no predicate)" : preds.ToString().c_str(),
              resp.estimate.choice == PlanChoice::kSignature
                  ? "signature"
                  : "boolean-first");
  size_t limit = static_cast<size_t>(args.GetInt("limit", 50));
  for (size_t i = 0; i < resp.tids.size() && i < limit; ++i) {
    PrintTuple(*wb, resp.tids[i], 0, false);
  }
  if (resp.tids.size() > limit) std::printf("  ... (--limit to see more)\n");
  FinishQuery(wb.get(), request, resp, args);
  return 0;
}

int CmdTopK(const Args& args) {
  auto wb = OpenDb(args);
  PredicateSet preds = ParseWhere(*wb, args.Get("where"));
  size_t k = static_cast<size_t>(args.GetInt("k", 10));
  std::unique_ptr<RankingFunction> f;
  int dp = wb->data().num_pref();
  if (args.Has("target")) {
    std::vector<double> target = ParseDoubles(args.Get("target"));
    std::vector<double> weights =
        args.Has("tweights") ? ParseDoubles(args.Get("tweights"))
                             : std::vector<double>(target.size(), 1.0);
    if (static_cast<int>(target.size()) != dp) {
      std::fprintf(stderr, "--target needs %d coordinates\n", dp);
      return 2;
    }
    f = std::make_unique<WeightedL2Ranking>(target, weights);
  } else {
    std::vector<double> weights =
        args.Has("weights") ? ParseDoubles(args.Get("weights"))
                            : std::vector<double>(dp, 1.0);
    if (static_cast<int>(weights.size()) != dp) {
      std::fprintf(stderr, "--weights needs %d values\n", dp);
      return 2;
    }
    f = std::make_unique<LinearRanking>(weights);
  }
  QueryRequest request =
      QueryRequest::TopK(preds, std::shared_ptr<const RankingFunction>(
                                    std::shared_ptr<const RankingFunction>(),
                                    f.get()),
                         k);
  request.hint = ParsePlanHint(args);
  request.deadline_ms = static_cast<uint64_t>(args.GetInt("deadline-ms", 0));
  auto resp = Unwrap(wb->Run(request));
  if (resp.degraded) {
    std::printf("degraded: %s; answered via boolean-first fallback\n",
                resp.degraded_reason.c_str());
  }
  std::printf("top %zu for %s\n", resp.tids.size(),
              preds.empty() ? "(no predicate)" : preds.ToString().c_str());
  for (size_t i = 0; i < resp.tids.size(); ++i) {
    PrintTuple(*wb, resp.tids[i], resp.scores[i], true);
  }
  FinishQuery(wb.get(), request, resp, args);
  return 0;
}

int CmdExplain(const Args& args) {
  auto wb = OpenDb(args);
  PredicateSet preds = ParseWhere(*wb, args.Get("where"));
  auto est = wb->Estimate(preds);
  if (!est.ok()) Die(est.status());
  std::printf("query: %s\n",
              preds.empty() ? "(no predicate)" : preds.ToString().c_str());
  std::printf("  estimated matching tuples: %llu\n",
              static_cast<unsigned long long>(est->matching_tuples));
  std::printf("  boolean-first plan:        ~%llu page reads\n",
              static_cast<unsigned long long>(est->boolean_pages));
  std::printf("  signature plan:            ~%llu page reads\n",
              static_cast<unsigned long long>(est->signature_pages));
  std::printf("  chosen plan:               %s\n",
              est->choice == PlanChoice::kSignature ? "signature (P-Cube)"
                                                    : "boolean-first");
  std::printf("  simd kernels:              %s\n",
              simd::SimdLevelName(simd::ActiveSimdLevel()));
  return 0;
}

int CmdVerify(const Args& args) {
  // Inspect the WAL sidecar BEFORE opening: Workbench::Open replays the log
  // and zeroes any torn tail, so damage must be reported off the raw file.
  size_t wal_problems = 0;
  const std::string wal_path = args.Require("db") + ".wal";
  if (std::ifstream(wal_path).good()) {
    auto wal_report = Unwrap(Wal::Inspect(wal_path));
    std::printf("wal: %llu record(s), start lsn %llu, last lsn %llu%s\n",
                static_cast<unsigned long long>(wal_report.num_records),
                static_cast<unsigned long long>(wal_report.start_lsn),
                static_cast<unsigned long long>(wal_report.last_lsn),
                wal_report.torn_tail
                    ? " (torn tail: unacknowledged suffix will be discarded)"
                    : "");
    for (const std::string& msg : wal_report.errors) {
      std::fprintf(stderr, "  wal: %s\n", msg.c_str());
    }
    wal_problems = wal_report.errors.size();
  }
  auto wb = OpenDb(args);
  auto report = Unwrap(wb->VerifyIntegrity());
  std::printf("verified %llu pages\n",
              static_cast<unsigned long long>(report.pages_checked));
  for (const auto& [pid, msg] : report.errors) {
    if (pid == kInvalidPageId) {
      std::fprintf(stderr, "  %s\n", msg.c_str());
    } else {
      std::fprintf(stderr, "  page %llu: %s\n",
                   static_cast<unsigned long long>(pid), msg.c_str());
    }
  }
  if (!report.ok() || wal_problems > 0) {
    std::fprintf(stderr, "%zu problem(s) found\n",
                 report.errors.size() + wal_problems);
    return 1;
  }
  std::printf("ok\n");
  return 0;
}

int CmdCorrupt(const Args& args) {
  std::string path = args.Require("db");
  std::vector<PageId> targets;
  if (args.Has("wal")) {
    // The WAL sidecar: default to page 1 (the head of the record region;
    // page 0 is the header) so `verify` sees a record CRC failure.
    path += ".wal";
    targets.push_back(static_cast<PageId>(args.GetInt("page", 1)));
  } else if (args.Has("page")) {
    targets.push_back(static_cast<PageId>(args.GetInt("page", 0)));
  } else {
    // Open the database to locate the pages of the requested structure,
    // then close it before touching the raw file.
    std::string kind = args.Get("kind", "signature");
    auto wb = Unwrap(Workbench::Open(path));
    if (kind == "signature") {
      // Every data page of the signature store, so any probe hits damage.
      targets = Unwrap(wb->cube()->store().DataPages());
    } else if (kind == "rtree") {
      targets.push_back(wb->tree()->root());
    } else if (kind == "table") {
      const auto& pages = wb->table()->page_ids();
      if (pages.empty()) {
        std::fprintf(stderr, "table has no pages\n");
        return 1;
      }
      targets.push_back(pages.front());
    } else if (kind == "catalog") {
      targets.push_back(PageId{0});
    } else {
      std::fprintf(stderr,
                   "unknown --kind '%s' (signature|rtree|table|catalog)\n",
                   kind.c_str());
      return 2;
    }
  }
  if (targets.empty()) {
    std::fprintf(stderr, "no pages to corrupt\n");
    return 1;
  }
  size_t offset = static_cast<size_t>(args.GetInt("offset", 64)) % kPageSize;
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return 1;
  }
  for (PageId pid : targets) {
    long pos = static_cast<long>(pid * kPageSize + offset);
    unsigned char byte = 0;
    if (std::fseek(f, pos, SEEK_SET) != 0 || std::fread(&byte, 1, 1, f) != 1) {
      std::fprintf(stderr, "cannot read page %llu\n",
                   static_cast<unsigned long long>(pid));
      std::fclose(f);
      return 1;
    }
    byte ^= 0xFF;
    if (std::fseek(f, pos, SEEK_SET) != 0 ||
        std::fwrite(&byte, 1, 1, f) != 1) {
      std::fprintf(stderr, "cannot write page %llu\n",
                   static_cast<unsigned long long>(pid));
      std::fclose(f);
      return 1;
    }
  }
  std::fclose(f);
  std::printf("flipped byte %zu in %zu page(s):",
              offset, targets.size());
  for (PageId pid : targets) {
    std::printf(" %llu", static_cast<unsigned long long>(pid));
  }
  std::printf("\n");
  return 0;
}

// ------------------------------------------------------------------ ingest

/// Resolves one CSV boolean value: dictionary string (local mode only),
/// "#code" (the wire form), or a bare / "v"-prefixed integer (the form
/// `pcube generate` emits).
bool ResolveIngestBool(const std::vector<std::vector<std::string>>* dicts,
                       size_t dim, const std::string& value, uint32_t* out) {
  if (dicts != nullptr && dim < dicts->size()) {
    const auto& dict = (*dicts)[dim];
    for (size_t v = 0; v < dict.size(); ++v) {
      if (dict[v] == value) {
        *out = static_cast<uint32_t>(v);
        return true;
      }
    }
  }
  const char* s = value.c_str();
  if (*s == '#' || *s == 'v') ++s;
  if (*s == '\0') return false;
  char* end = nullptr;
  const unsigned long code = std::strtoul(s, &end, 10);
  if (end == nullptr || *end != '\0') return false;
  *out = static_cast<uint32_t>(code);
  return true;
}

/// Reads --csv/--spec rows into WriteBatch insert rows.
std::vector<WriteBatch::Row> LoadIngestRows(
    const Args& args, const std::vector<std::vector<std::string>>* dicts) {
  std::vector<WriteBatch::Row> rows;
  if (!args.Has("csv")) return rows;
  const std::string spec = args.Require("spec");
  std::ifstream in(args.Get("csv"));
  if (!in.is_open()) {
    std::fprintf(stderr, "cannot open %s\n", args.Get("csv").c_str());
    std::exit(1);
  }
  std::string line;
  bool skip_header = args.Has("header");
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (skip_header) {
      skip_header = false;
      continue;
    }
    if (line.empty()) continue;
    std::vector<std::string> fields = SplitList(line);
    if (fields.size() < spec.size()) {
      std::fprintf(stderr, "line %zu: %zu field(s), spec wants %zu\n",
                   line_no, fields.size(), spec.size());
      std::exit(2);
    }
    WriteBatch::Row row;
    size_t bool_dim = 0;
    for (size_t i = 0; i < spec.size(); ++i) {
      if (spec[i] == 'b') {
        uint32_t code = 0;
        if (!ResolveIngestBool(dicts, bool_dim, fields[i], &code)) {
          std::fprintf(stderr, "line %zu: cannot resolve boolean '%s'\n",
                       line_no, fields[i].c_str());
          std::exit(2);
        }
        row.bools.push_back(code);
        ++bool_dim;
      } else if (spec[i] == 'p') {
        row.prefs.push_back(
            static_cast<float>(std::strtod(fields[i].c_str(), nullptr)));
      } else if (spec[i] != '-') {
        std::fprintf(stderr, "bad spec char '%c' (want b, p or -)\n", spec[i]);
        std::exit(2);
      }
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

int CmdIngest(const Args& args) {
  const bool remote = args.Has("connect");
  if (remote == args.Has("db")) {
    std::fprintf(stderr, "ingest wants exactly one of --db or --connect\n");
    return 2;
  }
  WriteBatch::Ack ack = WriteBatch::Ack::kApplied;
  const std::string ack_name = args.Get("ack", "applied");
  if (ack_name == "durable") {
    ack = WriteBatch::Ack::kDurable;
  } else if (ack_name != "applied") {
    std::fprintf(stderr, "unknown --ack '%s' (applied|durable)\n",
                 ack_name.c_str());
    return 2;
  }

  std::unique_ptr<Workbench> wb;
  std::unique_ptr<PCubeClient> client;
  if (remote) {
    const std::string connect = args.Get("connect");
    const size_t colon = connect.rfind(':');
    if (colon == std::string::npos) {
      std::fprintf(stderr, "--connect wants HOST:PORT\n");
      return 2;
    }
    client = Unwrap(PCubeClient::Connect(
        connect.substr(0, colon),
        static_cast<uint16_t>(
            std::strtoul(connect.c_str() + colon + 1, nullptr, 10))));
  } else {
    wb = OpenDb(args);
  }

  std::vector<WriteBatch::Row> rows =
      LoadIngestRows(args, wb ? &wb->dictionaries() : nullptr);
  std::vector<TupleId> deletes;
  for (const std::string& item : SplitList(args.Get("delete"))) {
    deletes.push_back(
        static_cast<TupleId>(std::strtoull(item.c_str(), nullptr, 10)));
  }
  if (rows.empty() && deletes.empty()) {
    std::fprintf(stderr, "nothing to ingest (--csv/--spec or --delete)\n");
    return 2;
  }

  const size_t batch_rows =
      static_cast<size_t>(std::max<int64_t>(1, args.GetInt("batch", 1024)));
  const std::string tenant = args.Get("tenant", "default");

  Timer total;
  size_t batches = 0;
  double commit_total = 0, commit_max = 0;
  uint32_t max_group = 0;
  WriteResult last;
  auto apply = [&](WriteBatch&& batch) {
    WriteResult r = remote ? Unwrap(client->Write(batch, tenant))
                           : Unwrap(wb->Apply(batch));
    ++batches;
    commit_total += r.commit_seconds;
    commit_max = std::max(commit_max, r.commit_seconds);
    max_group = std::max(max_group, r.group_size);
    last = r;
  };
  for (size_t first = 0; first < rows.size(); first += batch_rows) {
    WriteBatch batch;
    batch.ack = ack;
    const size_t count = std::min(batch_rows, rows.size() - first);
    batch.inserts.assign(std::make_move_iterator(rows.begin() + first),
                         std::make_move_iterator(rows.begin() + first + count));
    apply(std::move(batch));
  }
  if (!deletes.empty()) {
    WriteBatch batch;
    batch.ack = ack;
    batch.deletes = std::move(deletes);
    apply(std::move(batch));
  }
  const double seconds = total.ElapsedSeconds();
  const size_t total_rows =
      rows.size() + (args.Has("delete")
                         ? SplitList(args.Get("delete")).size()
                         : 0);
  std::printf(
      "ingested %zu row(s) in %zu batch(es), %.3f s (%.0f rows/s)\n"
      "  commit: mean %.3f ms, max %.3f ms, max group %u, last lsn %llu, "
      "epoch %llu%s\n",
      total_rows, batches, seconds,
      seconds > 0 ? static_cast<double>(total_rows) / seconds : 0.0,
      batches > 0 ? commit_total / static_cast<double>(batches) * 1e3 : 0.0,
      commit_max * 1e3, max_group,
      static_cast<unsigned long long>(last.lsn),
      static_cast<unsigned long long>(last.epoch),
      last.durable ? "" : " (NOT durable: RAM-backed service)");
  if (!remote && args.Has("save")) {
    if (Status st = wb->Save(); !st.ok()) Die(st);
    std::printf("checkpointed into %s\n", args.Get("db").c_str());
  }
  return 0;
}

// ----------------------------------------------------------- serve / query

volatile std::sig_atomic_t g_stop_requested = 0;
void HandleStopSignal(int) { g_stop_requested = 1; }

int CmdServe(const Args& args) {
  auto wb = OpenDb(args);
  std::unique_ptr<QueryLog> log;
  if (args.Has("query-log")) {
    log = Unwrap(QueryLog::OpenFile(args.Get("query-log")));
  }
  ServerOptions options;
  options.port = static_cast<uint16_t>(args.GetInt("port", 7333));
  options.workers = static_cast<size_t>(args.GetInt("workers", 0));
  options.max_connections = static_cast<size_t>(args.GetInt("max-conns", 64));
  options.admission.queue_cap =
      static_cast<size_t>(args.GetInt("queue-cap", 64));
  options.admission.tenant_rate =
      std::strtod(args.Get("tenant-rate", "0").c_str(), nullptr);
  options.admission.tenant_burst =
      std::strtod(args.Get("tenant-burst", "0").c_str(), nullptr);

  PCubeServer server(wb.get(), options, log.get());
  if (Status st = server.Start(); !st.ok()) Die(st);
  std::printf("pcube serve: listening on 127.0.0.1:%u "
              "(queue cap %zu, tenant rate %s)\n",
              static_cast<unsigned>(server.port()),
              options.admission.queue_cap,
              options.admission.tenant_rate > 0
                  ? args.Get("tenant-rate").c_str()
                  : "unlimited");
  std::fflush(stdout);

  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  while (g_stop_requested == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::printf("pcube serve: shutting down (served %llu request(s))\n",
              static_cast<unsigned long long>(server.requests_served()));
  server.Stop();
  return 0;
}

/// Client-mode predicates: no database (hence no dictionary), so columns
/// are dimension indices and values are "#code" or bare numeric codes.
PredicateSet ParseWhereRaw(const std::string& where) {
  PredicateSet preds;
  if (where.empty()) return preds;
  for (const std::string& term : SplitList(where)) {
    const size_t eq = term.find('=');
    bool ok = eq != std::string::npos;
    int dim = 0;
    uint32_t code = 0;
    if (ok) {
      char* end = nullptr;
      dim = static_cast<int>(std::strtol(term.c_str(), &end, 10));
      ok = end == term.c_str() + eq && dim >= 0;
      std::string value = term.substr(eq + 1);
      if (!value.empty() && value[0] == '#') value.erase(0, 1);
      char* vend = nullptr;
      code = static_cast<uint32_t>(std::strtoul(value.c_str(), &vend, 10));
      ok = ok && !value.empty() && vend == value.c_str() + value.size();
    }
    if (!ok) {
      std::fprintf(stderr,
                   "bad predicate '%s' (client mode wants dim=#code)\n",
                   term.c_str());
      std::exit(2);
    }
    preds.Add({dim, code});
  }
  return preds;
}

int CmdQuery(const Args& args) {
  const std::string connect = args.Require("connect");
  const size_t colon = connect.rfind(':');
  if (colon == std::string::npos) {
    std::fprintf(stderr, "--connect wants HOST:PORT\n");
    return 2;
  }
  const std::string host = connect.substr(0, colon);
  const uint16_t port = static_cast<uint16_t>(
      std::strtoul(connect.c_str() + colon + 1, nullptr, 10));

  PredicateSet preds = ParseWhereRaw(args.Get("where"));
  QueryRequest request;
  if (args.Has("k")) {
    const size_t k = static_cast<size_t>(args.GetInt("k", 10));
    std::shared_ptr<const RankingFunction> f;
    if (args.Has("target")) {
      std::vector<double> target = ParseDoubles(args.Get("target"));
      std::vector<double> weights =
          args.Has("tweights") ? ParseDoubles(args.Get("tweights"))
                               : std::vector<double>(target.size(), 1.0);
      f = std::make_shared<WeightedL2Ranking>(std::move(target),
                                              std::move(weights));
    } else if (args.Has("weights")) {
      f = std::make_shared<LinearRanking>(ParseDoubles(args.Get("weights")));
    } else {
      std::fprintf(stderr,
                   "client-mode top-k needs --weights or --target (the "
                   "preference dimensionality is not known locally)\n");
      return 2;
    }
    request = QueryRequest::TopK(std::move(preds), std::move(f), k);
  } else {
    SkylineQueryOptions options;
    options.skyband_k = static_cast<size_t>(args.GetInt("band", 1));
    if (args.Has("origin")) {
      for (double v : ParseDoubles(args.Get("origin"))) {
        options.origin.push_back(static_cast<float>(v));
      }
    }
    request = QueryRequest::Skyline(std::move(preds), options);
  }
  request.deadline_ms = static_cast<uint64_t>(args.GetInt("deadline-ms", 0));

  auto client = Unwrap(PCubeClient::Connect(host, port));
  PCubeClient::ServerStats stats;
  auto resp = Unwrap(client->Run(request, args.Get("tenant", "default"),
                                 &stats));
  std::printf("%zu result(s) [%s plan, cache: %s, server %.3f ms, "
              "queue wait %.3f ms, %llu page reads, trace %llu]\n",
              resp.tids.size(),
              resp.estimate.choice == PlanChoice::kSignature
                  ? "signature"
                  : "boolean-first",
              CacheOutcomeName(resp.cache), resp.seconds * 1e3,
              stats.queue_wait_seconds * 1e3,
              static_cast<unsigned long long>(stats.io_reads),
              static_cast<unsigned long long>(stats.trace_id));
  const size_t limit = static_cast<size_t>(args.GetInt("limit", 50));
  for (size_t i = 0; i < resp.tids.size() && i < limit; ++i) {
    std::printf("  #%llu", static_cast<unsigned long long>(resp.tids[i]));
    if (!resp.scores.empty()) std::printf("  (score %.6f)", resp.scores[i]);
    std::printf("\n");
  }
  if (resp.tids.size() > limit) std::printf("  ... (--limit to see more)\n");
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: pcube <generate|build|info|explain|skyline|topk"
               "|ingest|verify|corrupt|serve|query> [--options]\n"
               "run `pcube --help` for the full option list\n");
  return 2;
}

int Help() {
  std::printf(
      "pcube — P-Cube preference queries over multi-dimensional data\n"
      "\n"
      "commands:\n"
      "  generate --rows N --out F     emit a synthetic CSV\n"
      "           [--bool K --pref M --card C --dist D --seed S]\n"
      "  build    --csv F --spec S --db F [--header]\n"
      "                                import a CSV and persist all\n"
      "                                structures to one file\n"
      "  info     --db F               stored relation + structure stats\n"
      "  explain  --db F [--where W]   cost estimates and plan choice\n"
      "  skyline  --db F [--where W] [--band K] [--origin X,..] [--limit N]\n"
      "  topk     --db F --k N [--where W]\n"
      "           (--weights W,.. | --target T,.. [--tweights W,..])\n"
      "  ingest   (--db F | --connect HOST:PORT)\n"
      "           [--csv F --spec S [--header]] [--delete TID,..]\n"
      "           [--batch N] [--ack applied|durable] [--tenant T] [--save]\n"
      "                                stream WriteBatches through the WAL\n"
      "                                (local) or as kWrite frames (remote)\n"
      "  verify   --db F               WAL sidecar + full integrity walk\n"
      "                                (exit 1 on damage)\n"
      "  corrupt  --db F [--kind signature|rtree|table|catalog]\n"
      "           [--page N] [--offset K] [--wal]  flip bytes (testing tool)\n"
      "  serve    --db F [--port P] [--workers N]\n"
      "           [--queue-cap N] [--tenant-rate R] [--tenant-burst B]\n"
      "           [--max-conns N] [--query-log FILE]\n"
      "                                serve the database over TCP\n"
      "                                (127.0.0.1 only) with per-tenant\n"
      "                                admission control and load shedding\n"
      "  query    --connect HOST:PORT [--tenant T] [--deadline-ms N]\n"
      "           [--where \"0=#3,..\"] [--limit N]\n"
      "           (--k N (--weights W,.. | --target T,.. [--tweights W,..])\n"
      "            | [--band K] [--origin X,..])\n"
      "                                send one query to a running server\n"
      "\n"
      "query options (skyline, topk):\n"
      "  --plan auto|signature|boolean  plan selection (default auto: the\n"
      "                                 cost model picks; a forced plan\n"
      "                                 bypasses the result cache)\n"
      "  --deadline-ms N                fail the query with Timeout beyond N\n"
      "  --metrics                      print a Prometheus-style dump of all\n"
      "                                 engine/cache/buffer-pool metrics\n"
      "  --query-log FILE               append one JSONL trace record (plan,\n"
      "                                 cache outcome, counters, spans)\n"
      "\n"
      "database options (every command with --db):\n"
      "  --cache MB                     budget of the semantic result cache\n"
      "                                 (default 16)\n"
      "  --no-cache                     disable the result cache\n"
      "  --fault-plan SPEC              inject storage faults, e.g.\n"
      "                                 \"seed=7,read_error=0.01\"\n"
      "\n"
      "predicates: --where \"col=value,col=value\"; values may use the CSV\n"
      "dictionary (\"color=red\"), raw codes (\"color=#3\") or dimension\n"
      "indices (\"2=#3\").\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string cmd = argv[1];
  if (cmd == "--help" || cmd == "help" || cmd == "-h") return Help();
  Args args(argc, argv);
  if (cmd == "generate") return CmdGenerate(args);
  if (cmd == "build") return CmdBuild(args);
  if (cmd == "info") return CmdInfo(args);
  if (cmd == "explain") return CmdExplain(args);
  if (cmd == "skyline") return CmdSkyline(args);
  if (cmd == "topk") return CmdTopK(args);
  if (cmd == "ingest") return CmdIngest(args);
  if (cmd == "verify") return CmdVerify(args);
  if (cmd == "corrupt") return CmdCorrupt(args);
  if (cmd == "serve") return CmdServe(args);
  if (cmd == "query") return CmdQuery(args);
  return Usage();
}
