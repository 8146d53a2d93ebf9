// E5 — Cost computation (paper Sec. 7, formula (1)):
//   CostDoc = CostCop + sum_i (CostNet_i + CostSer_i),
//   Cost*_i = Cost*_{class(i)} x D_i.
// Prints the throughput-class cost tables and the per-stream decomposition
// of a typical news article, and verifies that the decomposition sums to
// the charged total. Also shows the scale check: a few-minute TV-quality
// article lands in the low single-digit dollars, matching the paper's
// running examples ($2.50-$6.00).
#include "cost/cost_model.hpp"
#include "document/corpus.hpp"

#include "bench_util.hpp"

namespace {

/// "C<i>", the label of throughput class i.
std::string class_label(std::size_t i) {
  std::string label = "C";
  label += std::to_string(i);
  return label;
}

}  // namespace

int main() {
  using namespace qosnp;
  using namespace qosnp::bench;

  print_title("E5: Cost computation (Sec. 7, formula (1))");

  const CostModel model;
  print_section("Throughput-class cost tables ($/s)");
  Table classes({"class", "up to kbit/s", "network $/s", "server $/s"});
  for (std::size_t i = 0; i < model.network_table().size(); ++i) {
    classes.row({class_label(i),
                 fmt(static_cast<double>(model.network_table().at(i).upper_bps) / 1000.0, 0),
                 model.network_table().at(i).cost_per_second.to_string(),
                 model.server_table().at(i).cost_per_second.to_string()});
  }
  classes.print();

  print_section("Decomposition of one news-article delivery (3 min)");
  const double duration = 180.0;
  const Money copyright = Money::cents(50);
  struct Item {
    const char* label;
    Variant variant;
  };
  const Item items[] = {
      {"video color 25fps 640px (MPEG-1)",
       make_video_variant("v", VideoQoS{ColorDepth::kColor, 25, 640}, CodingFormat::kMPEG1,
                          duration, "s")},
      {"audio CD (MPEG-audio)",
       make_audio_variant("a", AudioQuality::kCD, CodingFormat::kMPEGAudio, duration, "s")},
      {"text 8KB", make_text_variant("t", Language::kEnglish, CodingFormat::kPlainText, 8'000,
                                     "s")},
  };
  std::vector<StreamRequirements> streams;
  for (const Item& item : items) streams.push_back(map_variant(item.variant, duration, TimeProfile{}));
  const CostBreakdown breakdown = model.document_cost(copyright, streams);

  Table table({"component", "charged kbit/s", "class", "CostNet_i", "CostSer_i"});
  Money sum = copyright;
  for (std::size_t i = 0; i < streams.size(); ++i) {
    const std::int64_t charged = CostModel::charged_bps(streams[i]);
    table.row({items[i].label, fmt(static_cast<double>(charged) / 1000.0, 1),
               class_label(model.network_table().classify(charged)),
               breakdown.streams[i].network.to_string(),
               breakdown.streams[i].server.to_string()});
    sum += breakdown.streams[i].network + breakdown.streams[i].server;
  }
  table.print();
  std::cout << "  CostCop = " << copyright.to_string() << '\n';
  std::cout << "  CostDoc = " << breakdown.total.to_string() << '\n';

  const bool sums = sum == breakdown.total;
  const bool scale =
      breakdown.total >= Money::cents(250) && breakdown.total <= Money::dollars(6);
  std::cout << "\nFormula (1) decomposition sums to total                [" << check(sums)
            << "]\n";
  std::cout << "Typical article cost in the paper's $2.50-$6 regime    [" << check(scale)
            << "] (" << breakdown.total.to_string() << ")\n";
  return (sums && scale) ? 0 : 1;
}
