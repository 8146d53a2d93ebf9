// E1 — Static negotiation status (paper Sec. 5.2.1 worked example).
// Reproduces: "offer1: CONSTRAINT, offer2: CONSTRAINT, offer3: CONSTRAINT,
// and offer4: ACCEPTABLE."
#include "core/classify.hpp"
#include "core/paper_example.hpp"

#include "bench_util.hpp"

int main() {
  using namespace qosnp;
  using namespace qosnp::bench;

  print_title("E1: Static negotiation status (Sec. 5.2.1)");
  std::cout << "Request: (color, TV resolution, 25 frames/s) desired = worst acceptable,\n"
               "maximum cost $4.00\n";

  auto ex = paper::classification_example();
  const ImportanceProfile imp = paper::importance_setting(1);
  const char* expected[] = {"CONSTRAINT", "CONSTRAINT", "CONSTRAINT", "ACCEPTABLE"};

  Table table({"offer", "QoS", "cost", "paper SNS", "computed SNS", "verdict"});
  bool all_ok = true;
  for (std::size_t i = 0; i < ex.offers.eager.size(); ++i) {
    const SystemOffer& offer = ex.offers.eager[i];
    const Sns sns = compute_sns(offer, ex.profile.mm, imp);
    const bool ok = std::string(to_string(sns)) == expected[i];
    all_ok &= ok;
    table.row({paper::offer_name(offer), to_string(offer.components[0].variant->qos),
               offer.total_cost().to_string(), expected[i], std::string(to_string(sns)),
               check(ok)});
  }
  table.print();
  std::cout << (all_ok ? "\nE1 reproduced exactly.\n" : "\nE1 MISMATCH — see rows above.\n");
  return all_ok ? 0 : 1;
}
