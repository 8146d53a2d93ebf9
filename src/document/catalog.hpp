// Catalog: the metadata service the 1996 prototype obtained from the
// U. Alberta multimedia DBMS [Vit 95]. The negotiation procedure consults it
// for the variants (and their block lengths / localisation) of every
// monomedia of the requested document. Thread-safe: the simulator negotiates
// many sessions concurrently against one catalog.
#pragma once

#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "document/model.hpp"

namespace qosnp {

class Catalog {
 public:
  Catalog() = default;

  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  /// Insert (or replace) a document. Returns the validation problem list;
  /// an invalid document is rejected and not stored. Every successful insert
  /// stores a new document object, even when its content is unchanged.
  std::vector<std::string> add(MultimediaDocument doc);

  /// Remove a document; returns false when it was absent.
  bool remove(const DocumentId& id);

  /// Look up a document (nullptr when absent). A stored document is never
  /// mutated: while the catalog returns the same object for an id, the
  /// document is unchanged — the validity check the negotiation plan cache
  /// relies on.
  std::shared_ptr<const MultimediaDocument> find(const DocumentId& id) const;

  std::vector<DocumentId> list() const;
  std::size_t size() const;

  /// All variants of the whole catalog stored on a given server; used by
  /// server provisioning and the failure-injection experiments.
  std::vector<VariantId> variants_on_server(const ServerId& server) const;

 private:
  mutable std::shared_mutex mu_;
  std::unordered_map<DocumentId, std::shared_ptr<const MultimediaDocument>> docs_;
};

}  // namespace qosnp
