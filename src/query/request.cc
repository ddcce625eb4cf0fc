#include "query/request.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace pcube {

namespace {

// Exact bit pattern of a float in hex — rounding- and locale-independent.
void AppendFloatBits(float v, std::string* out) {
  uint32_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  char buf[12];
  std::snprintf(buf, sizeof(buf), "%08x", static_cast<unsigned>(bits));
  out->append(buf);
}

void AppendU64(uint64_t v, std::string* out) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  out->append(buf);
}

// The shared canonical body: `preds` substitutes for the request's own
// predicate set (containment lookups probe subset families) and
// `include_k` distinguishes the exact key from the family key.
std::string CanonicalBody(const QueryRequest& q, const PredicateSet& preds,
                          bool include_k) {
  std::string s;
  s.reserve(96);
  s += q.kind == QueryRequest::Kind::kSkyline ? "skyline" : "topk";
  s += "|preds=";
  // PredicateSet keeps predicates sorted by dimension, so insertion order
  // cannot leak into the key.
  const auto& ps = preds.predicates();
  for (size_t i = 0; i < ps.size(); ++i) {
    if (i > 0) s.push_back(',');
    s += std::to_string(ps[i].dim);
    s.push_back(':');
    AppendU64(ps[i].value, &s);
  }
  if (q.kind == QueryRequest::Kind::kSkyline) {
    std::vector<int> dims = q.skyline.pref_dims;
    std::sort(dims.begin(), dims.end());
    dims.erase(std::unique(dims.begin(), dims.end()), dims.end());
    s += "|pref=";
    for (size_t i = 0; i < dims.size(); ++i) {
      if (i > 0) s.push_back(',');
      s += std::to_string(dims[i]);
    }
    s += "|origin=";
    for (size_t i = 0; i < q.skyline.origin.size(); ++i) {
      if (i > 0) s.push_back(',');
      AppendFloatBits(q.skyline.origin[i], &s);
    }
    s += "|band=";
    AppendU64(q.skyline.skyband_k, &s);
  } else {
    s += "|rank=";
    s += q.ranking ? q.ranking->CacheKey() : std::string();
    if (include_k) {
      s += "|k=";
      AppendU64(q.k, &s);
    }
  }
  return s;
}

}  // namespace

uint64_t Fnv1a64(const std::string& bytes) {
  uint64_t h = 14695981039346656037ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

bool QueryRequest::Canonicalizable() const {
  if (kind == Kind::kSkyline) return true;
  return ranking != nullptr && !ranking->CacheKey().empty();
}

std::string QueryRequest::Canonical() const {
  if (!Canonicalizable()) return std::string();
  return CanonicalBody(*this, preds, /*include_k=*/true);
}

uint64_t QueryRequest::Fingerprint() const {
  if (!Canonicalizable()) return 0;
  return Fnv1a64(Canonical());
}

std::string QueryRequest::CanonicalFamily(const PredicateSet& p) const {
  if (!Canonicalizable()) return std::string();
  return CanonicalBody(*this, p, /*include_k=*/false);
}

uint64_t QueryRequest::FamilyFingerprint(const PredicateSet& p) const {
  if (!Canonicalizable()) return 0;
  return Fnv1a64(CanonicalFamily(p));
}

const char* CacheOutcomeName(CacheOutcome outcome) {
  switch (outcome) {
    case CacheOutcome::kNone:
      return "none";
    case CacheOutcome::kBypass:
      return "bypass";
    case CacheOutcome::kMiss:
      return "miss";
    case CacheOutcome::kHit:
      return "hit";
    case CacheOutcome::kContainment:
      return "containment";
  }
  return "none";
}

std::string QueryLogRecord(const QueryRequest& request,
                           const QueryResponse& response,
                           const std::string& tenant) {
  char buf[768];
  std::snprintf(
      buf, sizeof(buf),
      "{\"trace_id\":%llu,\"tenant\":\"%s\",\"kind\":\"%s\",\"preds\":\"%s\","
      "\"k\":%llu,"
      "\"plan\":\"%s\",\"cache\":\"%s\",\"degraded\":%s,"
      "\"seconds\":%.9g,\"results\":%llu,"
      "\"io_reads\":%llu,\"counters\":{\"heap_peak\":%llu,"
      "\"nodes_expanded\":%llu,\"pruned_boolean\":%llu,"
      "\"pruned_preference\":%llu,\"verified\":%llu,\"sig_seconds\":%.9g},"
      "\"spans\":",
      static_cast<unsigned long long>(response.trace_id()), tenant.c_str(),
      request.kind == QueryRequest::Kind::kSkyline ? "skyline" : "topk",
      request.preds.ToString().c_str(),
      static_cast<unsigned long long>(
          request.kind == QueryRequest::Kind::kTopK ? request.k : 0),
      response.estimate.choice == PlanChoice::kSignature ? "signature"
                                                         : "boolean_first",
      CacheOutcomeName(response.cache),
      response.degraded ? "true" : "false",
      response.seconds, static_cast<unsigned long long>(response.tids.size()),
      static_cast<unsigned long long>(response.io.TotalReads()),
      static_cast<unsigned long long>(response.counters.heap_peak),
      static_cast<unsigned long long>(response.counters.nodes_expanded),
      static_cast<unsigned long long>(response.counters.pruned_boolean),
      static_cast<unsigned long long>(response.counters.pruned_preference),
      static_cast<unsigned long long>(response.counters.verified),
      response.counters.sig_seconds);
  return std::string(buf) + response.trace.SpansJson() + "}";
}

}  // namespace pcube
