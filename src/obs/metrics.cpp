#include "obs/metrics.hpp"

#include <algorithm>
#include <sstream>

namespace qosnp {

namespace {

bool same_labels(const MetricLabels& a, const MetricLabels& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].first != b[i].first || a[i].second != b[i].second) return false;
  }
  return true;
}

/// `name{key="value",...}` — the exposition sample identity.
std::string sample_name(const std::string& name, const MetricLabels& labels) {
  if (labels.empty()) return name;
  std::string out = name + "{";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out += ',';
    out += labels[i].first;
    out += "=\"";
    for (char c : labels[i].second) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    out += '"';
  }
  out += '}';
  return out;
}

std::string format_value(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

}  // namespace

MetricsRegistry::Metric& MetricsRegistry::find_or_add(Kind kind, const std::string& name,
                                                      MetricLabels labels,
                                                      const std::string& help) {
  std::lock_guard lk(mu_);
  for (const auto& m : metrics_) {
    if (m->kind == kind && m->name == name && same_labels(m->labels, labels)) return *m;
  }
  auto metric = std::make_unique<Metric>();
  metric->kind = kind;
  metric->name = name;
  metric->labels = std::move(labels);
  metric->help = help;
  switch (kind) {
    case Kind::kCounter: metric->counter = std::make_unique<Counter>(); break;
    case Kind::kGauge: metric->gauge = std::make_unique<Gauge>(); break;
    case Kind::kHistogram: metric->histogram = std::make_unique<HistogramMetric>(); break;
  }
  metrics_.push_back(std::move(metric));
  return *metrics_.back();
}

const MetricsRegistry::Metric* MetricsRegistry::find(Kind kind, const std::string& name,
                                                     const MetricLabels& labels) const {
  std::lock_guard lk(mu_);
  for (const auto& m : metrics_) {
    if (m->kind == kind && m->name == name && same_labels(m->labels, labels)) return m.get();
  }
  return nullptr;
}

Counter& MetricsRegistry::counter(const std::string& name, MetricLabels labels,
                                  const std::string& help) {
  return *find_or_add(Kind::kCounter, name, std::move(labels), help).counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name, MetricLabels labels,
                              const std::string& help) {
  return *find_or_add(Kind::kGauge, name, std::move(labels), help).gauge;
}

HistogramMetric& MetricsRegistry::histogram(const std::string& name, MetricLabels labels,
                                            const std::string& help) {
  return *find_or_add(Kind::kHistogram, name, std::move(labels), help).histogram;
}

std::uint64_t MetricsRegistry::counter_value(const std::string& name,
                                             const MetricLabels& labels) const {
  const Metric* m = find(Kind::kCounter, name, labels);
  return m != nullptr ? m->counter->value() : 0;
}

std::string MetricsRegistry::expose() const {
  // Snapshot the metric list under the lock; values are read atomically (or
  // merged per shard) afterwards so exposition never blocks recording long.
  std::vector<const Metric*> snapshot;
  {
    std::lock_guard lk(mu_);
    snapshot.reserve(metrics_.size());
    for (const auto& m : metrics_) snapshot.push_back(m.get());
  }

  std::string out;
  std::string last_family;
  for (const Metric* m : snapshot) {
    if (m->name != last_family) {
      last_family = m->name;
      if (!m->help.empty()) out += "# HELP " + m->name + " " + m->help + "\n";
      switch (m->kind) {
        case Kind::kCounter: out += "# TYPE " + m->name + " counter\n"; break;
        case Kind::kGauge: out += "# TYPE " + m->name + " gauge\n"; break;
        case Kind::kHistogram: out += "# TYPE " + m->name + " summary\n"; break;
      }
    }
    switch (m->kind) {
      case Kind::kCounter:
        out += sample_name(m->name, m->labels) + " " + std::to_string(m->counter->value()) + "\n";
        break;
      case Kind::kGauge:
        out += sample_name(m->name, m->labels) + " " + std::to_string(m->gauge->value()) + "\n";
        break;
      case Kind::kHistogram: {
        const LatencyHistogram h = m->histogram->merged();
        for (const double q : {0.50, 0.95, 0.99}) {
          MetricLabels labels = m->labels;
          labels.emplace_back("quantile", format_value(q));
          out += sample_name(m->name, labels) + " " + format_value(h.quantile_ms(q)) + "\n";
        }
        out += sample_name(m->name + "_sum", m->labels) + " " + format_value(h.sum_ms()) + "\n";
        out += sample_name(m->name + "_count", m->labels) + " " + std::to_string(h.count()) + "\n";
        break;
      }
    }
  }
  return out;
}

}  // namespace qosnp
