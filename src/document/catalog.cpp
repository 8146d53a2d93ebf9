#include "document/catalog.hpp"

#include <algorithm>
#include <mutex>
#include <shared_mutex>

namespace qosnp {

std::vector<std::string> Catalog::add(MultimediaDocument doc) {
  std::vector<std::string> problems = validate(doc);
  if (!problems.empty()) return problems;
  auto ptr = std::make_shared<const MultimediaDocument>(std::move(doc));
  const DocumentId id = ptr->id;
  std::unique_lock lk(mu_);
  docs_[id] = std::move(ptr);
  return {};
}

bool Catalog::remove(const DocumentId& id) {
  std::unique_lock lk(mu_);
  return docs_.erase(id) > 0;
}

std::shared_ptr<const MultimediaDocument> Catalog::find(const DocumentId& id) const {
  std::shared_lock lk(mu_);
  auto it = docs_.find(id);
  return it == docs_.end() ? nullptr : it->second;
}

std::vector<DocumentId> Catalog::list() const {
  std::shared_lock lk(mu_);
  std::vector<DocumentId> ids;
  ids.reserve(docs_.size());
  for (const auto& [id, _] : docs_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::size_t Catalog::size() const {
  std::shared_lock lk(mu_);
  return docs_.size();
}

std::vector<VariantId> Catalog::variants_on_server(const ServerId& server) const {
  std::shared_lock lk(mu_);
  std::vector<VariantId> out;
  for (const auto& [_, doc] : docs_) {
    for (const Monomedia& m : doc->monomedia) {
      for (const Variant& v : m.variants) {
        if (v.server == server) out.push_back(v.id);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace qosnp
