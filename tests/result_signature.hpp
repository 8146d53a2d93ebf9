// Shared textual image of a NegotiationResult, used by every differential
// suite (plan cache, population) to assert byte-identity of outcomes.
#pragma once

#include <algorithm>
#include <cstddef>
#include <iomanip>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/negotiation_result.hpp"

namespace qosnp::testing {

/// One consumed offer of a list: its key and its variant ids.
inline std::string offer_line(const OfferList& offers, std::size_t i) {
  std::ostringstream os;
  os << std::setprecision(17);
  const SystemOffer o = offers.offer(i);
  os << "offer sns=" << to_string(o.sns) << " oif=" << o.oif
     << " cost=" << o.total_cost().as_micros();
  for (const OfferComponent& c : o.components) os << ' ' << c.variant->id;
  os << '\n';
  return os.str();
}

/// Exhaustive textual image of a NegotiationResult's procedure fields; two
/// results with equal signatures are byte-identical as far as any caller can
/// observe (doubles rendered at full precision).
inline std::string result_signature(const NegotiationResult& r) {
  std::ostringstream os;
  os << std::setprecision(17);
  os << "verdict=" << to_string(r.verdict) << '\n';
  os << "committed=" << r.committed_index << '\n';
  for (const std::string& p : r.problems) os << "problem=" << p << '\n';
  if (r.user_offer) {
    os << "user_offer=" << r.user_offer->describe() << " cost="
       << r.user_offer->cost.as_micros() << '\n';
  }
  os << "total=" << r.offers.total_combinations << " truncated=" << r.offers.truncated
     << " sns_ordered=" << r.offers.sns_ordered << '\n';
  for (std::size_t i = 0; i < r.offers.size(); ++i) os << offer_line(r.offers, i);
  os << "attempts=" << r.commit_stats.attempts << " retries=" << r.commit_stats.retries
     << " transient=" << r.commit_stats.transient_failures
     << " released=" << r.commit_stats.released_on_failure << '\n';
  return os.str();
}

/// Where the refusal lines of a walk that refuses offers by its nogoods
/// (`pruned`) differ from those of a walk that commits every offer it
/// examines (`oracle`), or empty when `pruned` is `oracle` folded by the
/// nogoods: each oracle "offer <ids>: <refusal>" line, in order, is either
/// the pruned walk's next real refusal line, or names an offer that starts
/// with the prefix of a nogood recorded before it (the earliest such nogood
/// claims it) and repeats that nogood's refusal; and each nogood's
/// "prefix <ids>: <n> more offers refused" line counts the lines it claims.
/// Other lines must match one for one. Equal lists always agree.
inline std::string refusal_fold_mismatch(const std::vector<std::string>& pruned,
                                         const std::vector<std::string>& oracle) {
  if (pruned == oracle) return {};
  auto split = [](std::string_view ids) {
    std::vector<std::string> out;
    for (std::size_t at = 0;;) {
      const std::size_t bar = ids.find('|', at);
      out.emplace_back(ids.substr(at, bar == std::string_view::npos ? ids.npos : bar - at));
      if (bar == std::string_view::npos) return out;
      at = bar + 1;
    }
  };
  struct Line {
    std::vector<std::string> ids;
    std::string text;  ///< the refusal (offer lines) or the count (prefix lines)
  };
  auto parse = [&](std::string_view line, std::string_view head) {
    const std::size_t colon = line.find(": ");
    return Line{split(line.substr(head.size(), colon - head.size())),
                std::string(line.substr(colon + 2))};
  };
  struct Real {
    Line offer;
    bool nogood = false;
    Line prefix;
  };
  std::vector<Real> reals;
  std::vector<std::string> pruned_other;
  std::vector<std::string> oracle_other;
  std::vector<Line> examined;
  for (const std::string& line : pruned) {
    if (line.starts_with("offer ")) {
      reals.push_back({parse(line, "offer "), false, {}});
    } else if (line.starts_with("prefix ") && !reals.empty() && !reals.back().nogood) {
      reals.back().nogood = true;
      reals.back().prefix = parse(line, "prefix ");
    } else {
      pruned_other.push_back(line);
    }
  }
  for (const std::string& line : oracle) {
    if (line.starts_with("offer ")) {
      examined.push_back(parse(line, "offer "));
    } else {
      oracle_other.push_back(line);
    }
  }
  if (pruned_other != oracle_other) return "lines other than refusals differ";
  struct Nogood {
    const Real* taught;
    std::size_t claimed = 0;
  };
  std::vector<Nogood> nogoods;
  std::size_t next = 0;
  for (std::size_t i = 0; i < examined.size(); ++i) {
    const Line& e = examined[i];
    Nogood* claim = nullptr;
    for (Nogood& n : nogoods) {
      const std::vector<std::string>& p = n.taught->prefix.ids;
      if (p.size() <= e.ids.size() && std::equal(p.begin(), p.end(), e.ids.begin())) {
        claim = &n;
        break;
      }
    }
    if (claim != nullptr) {
      if (claim->taught->offer.text != e.text) {
        return "oracle line " + std::to_string(i) + " refused differently from its nogood";
      }
      ++claim->claimed;
      continue;
    }
    if (next >= reals.size() || reals[next].offer.ids != e.ids || reals[next].offer.text != e.text) {
      return "oracle line " + std::to_string(i) + " is no real refusal of the pruned walk";
    }
    if (reals[next].nogood) nogoods.push_back({&reals[next]});
    ++next;
  }
  if (next != reals.size()) return "the pruned walk has real refusals the oracle lacks";
  for (const Nogood& n : nogoods) {
    if (n.taught->prefix.text != std::to_string(n.claimed) + " more offers refused") {
      return "a nogood claims " + std::to_string(n.claimed) + " lines but says '" +
             n.taught->prefix.text + "'";
    }
  }
  return {};
}

/// Where `pruned` differs from `oracle` (empty: they agree), for a result
/// whose walk refuses offers by its nogoods against one whose walk commits
/// every offer it examines. A result that committed must be byte-identical
/// (result_signature). A failed one must agree on every field but two: its
/// refusal lines must be the oracle's folded by its nogoods
/// (refusal_fold_mismatch), and its consumed offers must be the oracle's
/// first ones, with both lists reaching as many offers. Against an eager
/// oracle (`oracle_eager`: its list holds every offer from the start), a
/// committed result is held to the failed one's rule too.
inline std::string result_fold_mismatch(const NegotiationResult& pruned,
                                        const NegotiationResult& oracle,
                                        bool oracle_eager = false) {
  if (!oracle_eager && (pruned.has_commitment() || oracle.has_commitment())) {
    return result_signature(pruned) == result_signature(oracle) ? "" : "signatures differ";
  }
  auto header = [](const NegotiationResult& r) {
    std::ostringstream os;
    os << "verdict=" << to_string(r.verdict) << " committed=" << r.committed_index
       << " user_offer=" << (r.user_offer ? r.user_offer->describe() : "-")
       << " cost=" << (r.user_offer ? r.user_offer->cost.as_micros() : 0)
       << " total=" << r.offers.total_combinations << " truncated=" << r.offers.truncated
       << " sns_ordered=" << r.offers.sns_ordered << " known=" << r.offers.known_count()
       << " attempts=" << r.commit_stats.attempts << " retries=" << r.commit_stats.retries
       << " transient=" << r.commit_stats.transient_failures
       << " permanent=" << r.commit_stats.permanent_failures
       << " released=" << r.commit_stats.released_on_failure;
    return os.str();
  };
  if (header(pruned) != header(oracle)) return header(pruned) + " vs " + header(oracle);
  if (pruned.offers.size() > oracle.offers.size()) return "consumed more offers than the oracle";
  for (std::size_t i = 0; i < pruned.offers.size(); ++i) {
    if (offer_line(pruned.offers, i) != offer_line(oracle.offers, i)) {
      return "consumed offer " + std::to_string(i) + " differs";
    }
  }
  return refusal_fold_mismatch(pruned.problems, oracle.problems);
}

}  // namespace qosnp::testing
