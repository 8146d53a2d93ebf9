#include "document/serialize.hpp"

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "util/strings.hpp"

namespace qosnp {

namespace {

std::vector<std::string> pipe_fields(const std::string& value) {
  std::vector<std::string> out;
  for (const auto& f : split(value, '|')) out.emplace_back(trim(f));
  return out;
}

std::string_view relation_name(TemporalRelation::Type type) {
  switch (type) {
    case TemporalRelation::Type::kParallel: return "parallel";
    case TemporalRelation::Type::kSequential: return "sequential";
    case TemporalRelation::Type::kOverlap: return "overlap";
  }
  return "?";
}

std::optional<TemporalRelation::Type> parse_relation(std::string_view text) {
  if (iequals(text, "parallel")) return TemporalRelation::Type::kParallel;
  if (iequals(text, "sequential")) return TemporalRelation::Type::kSequential;
  if (iequals(text, "overlap")) return TemporalRelation::Type::kOverlap;
  return std::nullopt;
}

}  // namespace

std::string to_text(const MultimediaDocument& doc) {
  std::ostringstream os;
  os << "document = " << doc.id << '\n';
  if (!doc.title.empty()) os << "title = " << doc.title << '\n';
  os << "copyright = " << doc.copyright_cost.to_string() << '\n';
  for (const Monomedia& m : doc.monomedia) {
    os << "monomedia = " << m.id << " | " << to_string(m.kind) << " | " << m.name << " | "
       << format_double(m.duration_s, 3) << '\n';
    for (const Variant& v : m.variants) {
      os << "variant = " << v.id << " | " << to_string(v.format) << " | " << v.server << " | "
         << v.avg_block_bytes << " | " << v.max_block_bytes << " | "
         << format_double(v.blocks_per_second, 3) << " | " << v.file_bytes << " | "
         << qos_text(v.qos) << '\n';
    }
  }
  for (const TemporalRelation& t : doc.sync.temporal) {
    os << "temporal = " << t.first << " | " << t.second << " | " << relation_name(t.type)
       << " | " << format_double(t.offset_s, 3) << '\n';
  }
  for (const SpatialRegion& r : doc.sync.spatial) {
    os << "spatial = " << r.monomedia << " | " << r.x << ' ' << r.y << ' ' << r.width << ' '
       << r.height << '\n';
  }
  return os.str();
}

Result<std::vector<MultimediaDocument>> parse_documents(const std::string& text) {
  std::vector<MultimediaDocument> documents;
  MultimediaDocument current;
  bool open = false;

  auto fail = [](int line_no, const std::string& what) {
    return Err(std::string("line " + std::to_string(line_no) + ": " + what));
  };

  const auto lines = split(text, '\n');
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const int line_no = static_cast<int>(i) + 1;
    const auto line = trim(lines[i]);
    if (line.empty() || line.front() == '#') continue;
    std::string key;
    std::string value;
    if (!parse_key_value(line, key, value)) return fail(line_no, "expected 'key = value'");

    if (key == "document") {
      if (open) documents.push_back(std::move(current));
      current = MultimediaDocument{};
      current.id = value;
      open = true;
      continue;
    }
    if (!open) return fail(line_no, "key before any 'document =' line");

    if (key == "title") {
      current.title = value;
    } else if (key == "copyright") {
      current.copyright_cost = Money::parse(value);
    } else if (key == "monomedia") {
      const auto fields = pipe_fields(value);
      if (fields.size() != 4) return fail(line_no, "monomedia needs 4 '|' fields");
      const auto kind = parse_media_kind(fields[1]);
      if (!kind) return fail(line_no, "bad media kind '" + fields[1] + "'");
      Monomedia m;
      m.id = fields[0];
      m.kind = *kind;
      m.name = fields[2];
      m.duration_s = std::atof(fields[3].c_str());
      current.monomedia.push_back(std::move(m));
    } else if (key == "variant") {
      if (current.monomedia.empty()) return fail(line_no, "variant before any monomedia");
      const auto fields = pipe_fields(value);
      if (fields.size() != 8) return fail(line_no, "variant needs 8 '|' fields");
      Variant v;
      v.id = fields[0];
      const auto format = parse_coding_format(fields[1]);
      if (!format) return fail(line_no, "bad coding format '" + fields[1] + "'");
      v.format = *format;
      v.server = fields[2];
      v.avg_block_bytes = std::atoll(fields[3].c_str());
      v.max_block_bytes = std::atoll(fields[4].c_str());
      v.blocks_per_second = std::atof(fields[5].c_str());
      v.file_bytes = std::atoll(fields[6].c_str());
      if (!parse_qos_text(current.monomedia.back().kind, fields[7], v.qos)) {
        return fail(line_no, "bad QoS fields '" + fields[7] + "'");
      }
      current.monomedia.back().variants.push_back(std::move(v));
    } else if (key == "temporal") {
      const auto fields = pipe_fields(value);
      if (fields.size() != 4) return fail(line_no, "temporal needs 4 '|' fields");
      const auto type = parse_relation(fields[2]);
      if (!type) return fail(line_no, "bad temporal relation '" + fields[2] + "'");
      current.sync.temporal.push_back(
          TemporalRelation{fields[0], fields[1], *type, std::atof(fields[3].c_str())});
    } else if (key == "spatial") {
      const auto fields = pipe_fields(value);
      if (fields.size() != 2) return fail(line_no, "spatial needs 2 '|' fields");
      std::vector<std::string> nums;
      for (const auto& n : split(fields[1], ' ')) {
        if (!trim(n).empty()) nums.emplace_back(trim(n));
      }
      if (nums.size() != 4) return fail(line_no, "spatial region needs 'x y w h'");
      current.sync.spatial.push_back(SpatialRegion{fields[0], std::atoi(nums[0].c_str()),
                                                   std::atoi(nums[1].c_str()),
                                                   std::atoi(nums[2].c_str()),
                                                   std::atoi(nums[3].c_str())});
    } else {
      return fail(line_no, "unknown key '" + key + "'");
    }
  }
  if (open) documents.push_back(std::move(current));
  return documents;
}

Result<bool> save_catalog(const Catalog& catalog, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Err("cannot open '" + path + "' for writing");
  out << "# qosnp catalog (" << catalog.size() << " documents)\n";
  for (const DocumentId& id : catalog.list()) {
    auto doc = catalog.find(id);
    if (doc) out << '\n' << to_text(*doc);
  }
  return true;
}

Result<std::size_t> load_catalog(Catalog& catalog, const std::string& path) {
  std::ifstream in(path);
  if (!in) return Err("cannot open '" + path + "' for reading");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  auto parsed = parse_documents(buffer.str());
  if (!parsed.ok()) return Err(parsed.error());
  std::size_t loaded = 0;
  for (MultimediaDocument& doc : parsed.value()) {
    const DocumentId id = doc.id;
    const auto problems = catalog.add(std::move(doc));
    if (!problems.empty()) {
      return Err("document '" + id + "': " + problems.front());
    }
    ++loaded;
  }
  return loaded;
}

}  // namespace qosnp
