// E3 — The motivating example of paper Sec. 5.1: the user asks for a video
// news article at (color, 25 frames/s, TV resolution) with a $6.00 budget;
// the system finds three offers. The smart classification must pick
// (Color, 25 frames/s, TV resolution) at $6 — the only offer that satisfies
// both the QoS and the budget — automatically, so only one offer (with
// resources reserved) is ever presented to the user.
#include "core/classify.hpp"
#include "core/paper_example.hpp"

#include "bench_util.hpp"

int main() {
  using namespace qosnp;
  using namespace qosnp::bench;

  print_title("E3: Motivating example (Sec. 5.1)");
  std::cout << "Request: (color, 25 frames/s, TV resolution), maximum cost $6.00\n";

  auto ex = paper::motivating_example();
  ex.profile.importance = paper::importance_setting(1);
  classify_offers(ex.offers.eager, ex.profile.mm, ex.profile.importance);

  Table table({"rank", "offer", "QoS", "cost", "SNS", "OIF", "satisfies user"});
  for (std::size_t i = 0; i < ex.offers.eager.size(); ++i) {
    const SystemOffer& o = ex.offers.eager[i];
    table.row({std::to_string(i + 1), paper::offer_name(o),
               to_string(o.components[0].variant->qos), o.total_cost().to_string(),
               std::string(to_string(o.sns)), fmt(o.oif, 0),
               satisfies_user(ex.offers, i, ex.profile.mm) ? "yes" : "no"});
  }
  table.print();

  const bool ok = paper::offer_name(ex.offers.eager[0]) == "offerC" &&
                  ex.offers.eager[0].sns == Sns::kDesirable &&
                  satisfies_user(ex.offers, 0, ex.profile.mm);
  std::cout << "\nTop-ranked offer: " << derive_user_offer(ex.offers, 0).describe()
            << "\nExpected: the (color, 25 frames/s, TV resolution) variant at $6.00  ["
            << check(ok) << "]\n";
  return ok ? 0 : 1;
}
