// Baseline negotiators the smart procedure is evaluated against (E7/E10).
// The paper positions its contribution against "basic negotiation provided
// by the existing QoS architectures", whose mechanisms "are restricted to
// the evaluation of the capacity of certain system components a priori
// known to support a specific QoS", and argues (Sec. 5) that classifying
// offers by cost alone or QoS alone is "neither optimal nor suitable".
// Each alternative differs from the paper's procedure only in which offers
// it tries and in what order: all run QoSManager's catalog lookup and Steps
// 1-2 (static_check) and its Step-5 verdict (settle_verdict), and the three
// non-smart ones are orderings over one negotiate() whose commit walk is a
// single pass, first committable offer wins:
//
//   * BasicNegotiator    — static negotiation: per monomedia, the first
//     variant a priori known to satisfy the desired QoS, so one offer and
//     no fallback; rejected when some monomedia has no such variant.
//   * CostOnlyNegotiator — every feasible offer, cheapest first.
//   * QoSOnlyNegotiator  — every feasible offer, best QoS first, cost ignored.
//   * SmartNegotiator    — the paper's procedure (wraps a QoSManager).
#pragma once

#include <string_view>

#include "core/qos_manager.hpp"

namespace qosnp {

class Negotiator {
 public:
  virtual ~Negotiator() = default;
  virtual std::string_view name() const = 0;
  virtual NegotiationResult negotiate(const NegotiationRequest& request) = 0;
};

/// The paper's procedure, run by a caller-owned manager.
class SmartNegotiator final : public Negotiator {
 public:
  explicit SmartNegotiator(QoSManager& manager) : manager_(&manager) {}

  std::string_view name() const override { return "smart"; }
  NegotiationResult negotiate(const NegotiationRequest& request) override {
    return manager_->negotiate(request);
  }
  QoSManager& manager() { return *manager_; }

 private:
  QoSManager* manager_;
};

/// The non-smart baselines: one negotiate() body over the offers a subclass
/// lists in its own order. Inherently eager: each order is imposed on the
/// materialised list (enumerate_offers under the default cap), which is not
/// the classification order the lazy best-first stream yields. The produced
/// OfferList carries no stream and is not sns_ordered.
class EnumeratingNegotiator : public Negotiator {
 public:
  EnumeratingNegotiator(Catalog& catalog, ServerProvider& farm, TransportProvider& transport,
                        CostModel cost_model = {}, RetryPolicy retry = {})
      : catalog_(&catalog), farm_(&farm), transport_(&transport),
        cost_model_(std::move(cost_model)), retry_(retry) {}

  NegotiationResult negotiate(const NegotiationRequest& request) final;

 protected:
  /// The offers to try, in commit order. An error refuses the request with
  /// FAILEDWITHOUTOFFER before anything is reserved.
  virtual Result<OfferList> ordered_offers(const FeasibleSet& feasible,
                                           const UserProfile& profile) const = 0;

  /// Every offer of the feasible set with sns/oif filled (for reporting
  /// parity; the orderings themselves ignore them).
  OfferList scored_offers(const FeasibleSet& feasible, const UserProfile& profile) const;

  Catalog* catalog_;
  ServerProvider* farm_;
  TransportProvider* transport_;
  CostModel cost_model_;
  RetryPolicy retry_;
};

class CostOnlyNegotiator final : public EnumeratingNegotiator {
 public:
  using EnumeratingNegotiator::EnumeratingNegotiator;
  std::string_view name() const override { return "cost-only"; }

 protected:
  Result<OfferList> ordered_offers(const FeasibleSet& feasible,
                                   const UserProfile& profile) const override;
};

class QoSOnlyNegotiator final : public EnumeratingNegotiator {
 public:
  using EnumeratingNegotiator::EnumeratingNegotiator;
  std::string_view name() const override { return "qos-only"; }

 protected:
  Result<OfferList> ordered_offers(const FeasibleSet& feasible,
                                   const UserProfile& profile) const override;
};

/// Static first-fit negotiation without alternatives.
class BasicNegotiator final : public EnumeratingNegotiator {
 public:
  using EnumeratingNegotiator::EnumeratingNegotiator;

  std::string_view name() const override { return "basic"; }

 protected:
  Result<OfferList> ordered_offers(const FeasibleSet& feasible,
                                   const UserProfile& profile) const override;
};

}  // namespace qosnp
