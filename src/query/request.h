// The unified query API. Every front door of the system — the cost-based
// QueryPlanner, the concurrent BatchExecutor and the pcube CLI — speaks
// QueryRequest in and QueryResponse out, so a query is planned, executed,
// measured and logged identically no matter how it arrived. The response
// carries the full observability payload: the engine counters behind
// Figs. 8-16, the executed physical I/O, the plan that ran, and a Trace of
// per-stage timings that serialises to one JSONL query-log record.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/io_stats.h"
#include "common/trace.h"
#include "cube/cell.h"
#include "query/query_types.h"
#include "query/ranking.h"

namespace pcube {

/// Which physical plan executes a query.
enum class PlanChoice { kSignature, kBooleanFirst };

/// Caller-supplied plan constraint: kAuto lets the cost model decide,
/// anything else forces that plan (regression tests, the CLI's --plan).
enum class PlanHint { kAuto, kSignature, kBooleanFirst };

/// Cost estimates (in 4 KB page reads) and the decision.
struct PlanEstimate {
  uint64_t matching_tuples = 0;
  uint64_t boolean_pages = 0;    ///< selection fetches or table scan
  uint64_t signature_pages = 0;  ///< modelled R-tree blocks + signatures
  PlanChoice choice = PlanChoice::kSignature;
};

/// One parsed preference query, ready to plan and execute.
struct QueryRequest {
  enum class Kind { kSkyline, kTopK };

  Kind kind = Kind::kSkyline;
  PredicateSet preds;

  /// kSkyline: preference dims / k-skyband / dynamic-skyline origin.
  SkylineQueryOptions skyline;

  /// kTopK: ranking function (shared_ptr so a batch can reuse one function
  /// across queries; read concurrently, so it must stay immutable) and k.
  std::shared_ptr<const RankingFunction> ranking;
  size_t k = 10;

  PlanHint hint = PlanHint::kAuto;

  /// Wall-clock budget for the execution, 0 = unlimited. When it expires
  /// mid-expansion the query fails with Status::Timeout rather than
  /// returning a silently incomplete answer.
  uint64_t deadline_ms = 0;

  static QueryRequest Skyline(PredicateSet preds,
                              SkylineQueryOptions options = {}) {
    QueryRequest q;
    q.kind = Kind::kSkyline;
    q.preds = std::move(preds);
    q.skyline = std::move(options);
    return q;
  }

  static QueryRequest TopK(PredicateSet preds,
                           std::shared_ptr<const RankingFunction> f,
                           size_t k) {
    QueryRequest q;
    q.kind = Kind::kTopK;
    q.preds = std::move(preds);
    q.ranking = std::move(f);
    q.k = k;
    return q;
  }

  /// True when the query has a stable canonical form: always for skylines,
  /// for top-k only when the ranking function reports a CacheKey(). Queries
  /// without one cannot be fingerprinted and bypass the result cache.
  bool Canonicalizable() const;

  /// Canonical textual form of the query: kind, predicates (already sorted
  /// by dimension), skyline options with pref_dims sorted and deduped,
  /// ranking CacheKey and k, with all floating-point parameters rendered as
  /// exact bit patterns. Two requests with equal Canonical() strings have
  /// byte-identical answers against the same data. Plan hints and deadlines
  /// are deliberately excluded — they change how a query runs, not what it
  /// returns. Empty when !Canonicalizable().
  std::string Canonical() const;

  /// Stable 64-bit FNV-1a hash of Canonical(); 0 when !Canonicalizable().
  uint64_t Fingerprint() const;

  /// Canonical() with the predicate set replaced by `preds` and, for top-k,
  /// the k term dropped. This is the result cache's family key: a cached
  /// top-k answer serves any smaller k of the same family by truncation,
  /// and containment lookups probe the families of predicate subsets.
  std::string CanonicalFamily(const PredicateSet& preds) const;
  uint64_t FamilyFingerprint(const PredicateSet& preds) const;
};

/// FNV-1a 64-bit over a byte string (the query-fingerprint hash).
uint64_t Fnv1a64(const std::string& bytes);

/// How the result cache participated in answering a query.
enum class CacheOutcome {
  kNone,         ///< no result cache configured
  kBypass,       ///< cache present but not consulted (forced plan hint,
                 ///< non-canonicalizable query)
  kMiss,         ///< consulted, executed from scratch
  kHit,          ///< served from an exact cached entry (incl. truncation)
  kContainment,  ///< derived from a cached subset-predicate entry
};

const char* CacheOutcomeName(CacheOutcome outcome);

/// What every execution path returns: the answer plus everything needed to
/// observe how it was produced.
struct QueryResponse {
  /// Result tuples: ascending tid order for skylines, rank order for top-k.
  std::vector<TupleId> tids;
  /// Top-k only: exact scores aligned with `tids` (ascending).
  std::vector<double> scores;
  /// Counters of the executed engine (both plans report them; the
  /// boolean-first path fills heap_peak with its in-memory working set).
  EngineCounters counters;
  /// Physical page I/O this query performed.
  IoStats io;
  /// Cost-model output; estimate.choice is the plan that actually ran.
  PlanEstimate estimate;
  /// Per-stage timings (signature_probe, heap_expand, boolean_verify,
  /// io_wait, ...) plus the process-unique trace id.
  Trace trace;
  double seconds = 0;  ///< wall time of the execution

  /// True when the signature plan failed on corrupt/unreadable pages and
  /// the planner recomputed the answer via the boolean-first plan (P-Cube
  /// signatures are derived state, so the base relation remains
  /// authoritative). `degraded_reason` carries the original failure.
  bool degraded = false;
  std::string degraded_reason;

  /// Result-cache outcome for this query (logged as `cache:` in the query
  /// log). Degraded responses are never inserted into the cache.
  CacheOutcome cache = CacheOutcome::kNone;

  uint64_t trace_id() const { return trace.id(); }
};

/// One query-log line: a JSON object (no trailing newline) with the trace
/// id, query shape, chosen plan, result size, I/O, engine counters and
/// per-stage spans. Schema documented in DESIGN.md §8. `tenant` attributes
/// the record to a network-server tenant (empty outside the server, logged
/// as "" — the field is always present so log consumers need no schema
/// branch).
std::string QueryLogRecord(const QueryRequest& request,
                           const QueryResponse& response,
                           const std::string& tenant = std::string());

}  // namespace pcube
