// Multimedia document model (paper Fig. 1, OMT): a document is a monomedia
// or a multimedia; a multimedia aggregates monomedia and carries spatial and
// temporal synchronisation attributes. Each monomedia exists in one or more
// physical *variants* which differ in coding format, quality, block lengths
// and localisation (which server stores them) — paper Sec. 2.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "media/qos.hpp"
#include "media/types.hpp"
#include "util/money.hpp"

namespace qosnp {

using DocumentId = std::string;
using MonomediaId = std::string;
using VariantId = std::string;
using ServerId = std::string;

/// A physical representation of a monomedia object. Copies on different
/// servers are distinct variants (paper: "Copies of the same file are
/// considered also as variants").
struct Variant {
  VariantId id;
  CodingFormat format = CodingFormat::kMPEG1;
  MonomediaQoS qos;  ///< quality this variant delivers when played natively

  /// Block lengths as stored in the MM database (paper Sec. 6): a block is
  /// a video frame, an audio sample block, or the whole object for
  /// discrete media.
  std::int64_t avg_block_bytes = 0;
  std::int64_t max_block_bytes = 0;
  /// Blocks delivered per second during playout. Equals the frame rate for
  /// video; the sample-block rate for audio; 0 for discrete media (text and
  /// images are delivered once, paced by the time profile).
  double blocks_per_second = 0.0;

  std::int64_t file_bytes = 0;  ///< total stored size
  ServerId server;              ///< localisation of the file

  MediaKind kind() const { return media_kind_of(qos); }
  std::string describe() const;
};

/// One logical monomedia object of a document together with its variants.
struct Monomedia {
  MonomediaId id;
  MediaKind kind = MediaKind::kVideo;
  std::string name;
  double duration_s = 0.0;  ///< playout duration; 0 for discrete media
  std::vector<Variant> variants;

  const Variant* find_variant(const VariantId& vid) const;
};

/// Temporal synchronisation attribute between two monomedia (Fig. 1
/// "temporal synchronization constraints").
struct TemporalRelation {
  enum class Type { kParallel, kSequential, kOverlap };
  MonomediaId first;
  MonomediaId second;
  Type type = Type::kParallel;
  double offset_s = 0.0;  ///< start offset of `second` relative to `first`
};

/// Spatial layout attribute: where a visual monomedia is rendered
/// (Fig. 1 "spatial synchronization constraints").
struct SpatialRegion {
  MonomediaId monomedia;
  int x = 0;
  int y = 0;
  int width = 0;
  int height = 0;
};

struct SyncSpec {
  std::vector<TemporalRelation> temporal;
  std::vector<SpatialRegion> spatial;
};

/// A multimedia (or monomedia, when it aggregates exactly one object)
/// document, e.g. a news article.
struct MultimediaDocument {
  DocumentId id;
  std::string title;
  Money copyright_cost;  ///< CostCop of the cost formula (Sec. 7)
  std::vector<Monomedia> monomedia;
  SyncSpec sync;

  /// Total playout duration: the longest continuous component.
  double duration_s() const;
  const Monomedia* find_monomedia(const MonomediaId& mid) const;
  /// Bounding box of the spatial layout (0x0 when no layout given).
  std::pair<int, int> layout_extent() const;
};

/// Structural validation: every variant's medium matches its monomedia's
/// kind, sync constraints refer to existing monomedia, block lengths are
/// consistent (avg <= max), continuous media have a positive block rate.
/// Returns a human-readable problem list (empty when valid).
std::vector<std::string> validate(const MultimediaDocument& doc);

}  // namespace qosnp
