// Cost computation (paper Sec. 7). Throughput is bucketed into a finite
// range of *throughput classes*; cost tables give the per-time-unit price of
// each class, one table for the network and one for the server. For a
// monomedia M_i of length D_i whose throughput falls in class C_i:
//   CostNet_i = CostNet_{C_i} x D_i,   CostSer_i = CostSer_{C_i} x D_i
//   CostDoc   = CostCop + sum_i (CostNet_i + CostSer_i)          (1)
// The type of guarantee also enters the price: best-effort streams are
// charged a discounted rate relative to guaranteed ones.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "qosmap/mapping.hpp"
#include "util/money.hpp"

namespace qosnp {

/// One throughput class: all rates up to `upper_bps` (exclusive lower bound
/// is the previous class's upper). `cost_per_second` is the tariff while a
/// stream of this class is active.
struct ThroughputClass {
  std::int64_t upper_bps;
  Money cost_per_second;
  friend bool operator==(const ThroughputClass&, const ThroughputClass&) = default;
};

/// A finite table of throughput classes with monotone tariffs.
class CostTable {
 public:
  CostTable() = default;
  explicit CostTable(std::vector<ThroughputClass> classes);

  /// Index of the class covering `bps` (rates above the last class fall in
  /// the last class — the table must be provisioned to cover the offer
  /// space; see validate()).
  std::size_t classify(std::int64_t bps) const;
  Money cost_per_second(std::int64_t bps) const;
  std::size_t size() const { return classes_.size(); }
  const ThroughputClass& at(std::size_t i) const { return classes_[i]; }

  /// Problems: empty table, non-increasing class bounds, decreasing tariffs.
  std::vector<std::string> validate() const;

  /// Default tariffs used by the prototype benches: eight classes from
  /// 64 kbit/s to 100 Mbit/s.
  static CostTable standard_network();
  static CostTable standard_server();

  friend bool operator==(const CostTable&, const CostTable&) = default;

 private:
  std::vector<ThroughputClass> classes_;
};

/// Cost breakdown for one document delivery.
struct CostBreakdown {
  struct PerStream {
    Money network;
    Money server;
  };
  Money copyright;
  std::vector<PerStream> streams;
  Money total;  ///< CostDoc of formula (1)
};

class CostModel {
 public:
  CostModel() : network_(CostTable::standard_network()), server_(CostTable::standard_server()) {}
  CostModel(CostTable network, CostTable server, double best_effort_discount = 0.5)
      : network_(std::move(network)), server_(std::move(server)),
        best_effort_discount_(best_effort_discount) {}

  const CostTable& network_table() const { return network_; }
  const CostTable& server_table() const { return server_; }
  double best_effort_discount() const { return best_effort_discount_; }

  /// The throughput figure a stream is charged for: the average bit rate
  /// (the paper's "main QoS parameter ... is the throughput"; the service
  /// class enters the price as a tariff factor, not as a different rate).
  static std::int64_t charged_bps(const StreamRequirements& req);

  Money stream_network_cost(const StreamRequirements& req) const;
  Money stream_server_cost(const StreamRequirements& req) const;

  /// Formula (1) over all streams of a document delivery.
  CostBreakdown document_cost(Money copyright,
                              const std::vector<StreamRequirements>& streams) const;

  friend bool operator==(const CostModel&, const CostModel&) = default;

 private:
  Money charge(const CostTable& table, const StreamRequirements& req) const;

  CostTable network_;
  CostTable server_;
  double best_effort_discount_ = 0.5;
};

}  // namespace qosnp
