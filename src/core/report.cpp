#include "core/report.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "core/classify.hpp"

namespace qosnp {

namespace {

const char* next_step(NegotiationStatus status) {
  switch (status) {
    case NegotiationStatus::kSucceeded:
      return "Press OK within the choice period to start the delivery; the reserved\n"
             "resources are released if the period expires.";
    case NegotiationStatus::kFailedWithOffer:
      return "The system cannot meet the requested QoS/cost; the best supportable\n"
             "offer above is reserved. Accept it, reject it, or modify the profile\n"
             "and renegotiate.";
    case NegotiationStatus::kFailedTryLater:
      return "Resource shortage: no feasible configuration can be supported right\n"
             "now. Try again later.";
    case NegotiationStatus::kFailedWithoutOffer:
      return "No variant of the document can be decoded by this client machine;\n"
             "no offer is possible.";
    case NegotiationStatus::kFailedWithLocalOffer:
      return "The client machine cannot render the worst-acceptable QoS. The local\n"
             "offer above shows the best this machine can do; lower the profile's\n"
             "floors and renegotiate.";
  }
  return "";
}

}  // namespace

std::string render_summary(const NegotiationResult& outcome) {
  std::ostringstream os;
  os << to_string(outcome.verdict);
  if (outcome.user_offer) os << ": " << outcome.user_offer->describe();
  return os.str();
}

std::string render_classification_table(const NegotiationResult& outcome,
                                        const MMProfile& profile, std::size_t max_rows) {
  std::ostringstream os;
  // known_count covers the lazy tail (offers the stream can still yield but
  // that the commitment walk never needed to materialise).
  const std::size_t known = outcome.offers.known_count();
  os << "classified " << known << " system offers";
  if (outcome.offers.truncated) {
    os << " (truncated from " << outcome.offers.total_combinations << ")";
  }
  os << ":\n";
  os << "  rank  sns         oif       cost      satisfies  variants\n";
  const std::size_t rows = std::min(max_rows, outcome.offers.size());
  const OfferList& offers = outcome.offers;
  for (std::size_t i = 0; i < rows; ++i) {
    os << (i == outcome.committed_index ? "> " : "  ");
    os << std::left << std::setw(6) << i + 1 << std::setw(12) << to_string(offers.sns(i))
       << std::setw(10) << std::setprecision(4) << offers.oif(i) << std::setw(10)
       << offers.total_cost(i).to_string() << std::setw(11)
       << (satisfies_user(offers, i, profile) ? "yes" : "no");
    for (std::size_t c = 0; c < offers.component_count(i); ++c) {
      os << (c ? ", " : "") << offers.variant(i, c)->id;
    }
    os << '\n';
  }
  if (rows < known) os << "  ... " << known - rows << " more\n";
  if (outcome.committed_index != SIZE_MAX && outcome.committed_index >= rows) {
    os << "> committed: rank " << outcome.committed_index + 1 << '\n';
  }
  return os.str();
}

std::string render_information_window(const NegotiationResult& outcome) {
  std::ostringstream os;
  os << "+---------------- negotiation result ----------------\n";
  os << "| status: " << to_string(outcome.verdict) << '\n';
  if (outcome.user_offer) {
    const UserOffer& offer = *outcome.user_offer;
    if (offer.video) os << "| video:  " << offer.video->to_string() << '\n';
    if (offer.audio) os << "| audio:  " << offer.audio->to_string() << '\n';
    if (offer.text) os << "| text:   " << offer.text->to_string() << '\n';
    if (offer.image) os << "| image:  " << offer.image->to_string() << '\n';
    os << "| cost:   " << offer.cost.to_string() << '\n';
  }
  if (outcome.has_commitment()) {
    os << "| reserved: offer " << outcome.committed_index + 1 << " of "
       << outcome.offers.known_count() << " classified configurations\n";
  }
  for (const std::string& problem : outcome.problems) {
    os << "| note: " << problem << '\n';
  }
  os << "|\n";
  std::istringstream steps(next_step(outcome.verdict));
  std::string line;
  while (std::getline(steps, line)) os << "| " << line << '\n';
  os << "+-----------------------------------------------------";
  return os.str();
}

}  // namespace qosnp
