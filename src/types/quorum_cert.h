// Quorum certificates and the paper's *rank* partial order (Fig. 4).
//
// A QC is an aggregate of n−f vote signatures over a fixed digest. The QC
// carries enough block metadata (hash, block view, height, parent view,
// virtual flag) that rank comparisons and child-block construction need no
// access to the block body; all of that metadata is covered by the signed
// digest, so it cannot be forged independently of the votes.
//
// qc.view is the view the QC was *formed* in. It usually equals the block's
// view, except for happy-path view-change QCs, where n−f VIEW-CHANGE
// partial signatures over an old block combine into a prepareQC formed in
// the new view (paper §V-C "Happy path in view change").
#pragma once

#include <optional>
#include <string>

#include "common/ids.h"
#include "common/serialize.h"
#include "crypto/aggregate.h"
#include "crypto/sha256.h"

namespace marlin::types {

using crypto::Hash256;

/// Vote/QC type. Marlin uses {PrePrepare, Prepare, Commit}; the HotStuff
/// baseline uses {Prepare, PreCommit, Commit}.
enum class QcType : std::uint8_t {
  kPrePrepare = 0,
  kPrepare = 1,
  kPreCommit = 2,  // HotStuff only
  kCommit = 3,
};

const char* qc_type_name(QcType t);

struct QuorumCert {
  QcType type = QcType::kPrepare;
  ViewNumber view = 0;        // view in which this QC was formed
  Hash256 block_hash;         // block(qc)
  ViewNumber block_view = 0;  // view of block(qc)
  Height height = 0;          // qc.height — height of block(qc)
  ViewNumber pview = 0;       // qc.pview — view of block(qc)'s parent
  bool virtual_block = false; // block(qc) is a virtual block
  /// Signature-group instantiation: n−f individual signatures (the
  /// paper's "most efficient implementation"). Empty in threshold form.
  crypto::SigGroup sigs;
  /// Threshold-signature instantiation: one constant-size combined
  /// signature (paper §III). Empty in signature-group form.
  Bytes threshold_sig;

  bool is_threshold_form() const { return !threshold_sig.empty(); }

  /// The digest every vote in this QC signs. Computed from the metadata
  /// fields (protocol-domain-separated so HotStuff and Marlin votes can
  /// never cross-validate).
  Hash256 signed_digest(std::string_view domain) const;

  /// Genesis certificate: rank-lowest prepareQC, valid by convention
  /// (empty signature set, view 0).
  static QuorumCert genesis(const Hash256& genesis_hash);
  bool is_genesis() const { return view == 0; }

  void encode(Writer& w) const;
  /// Exact number of bytes encode() appends.
  std::size_t encoded_size() const;
  static Result<QuorumCert> decode(Reader& r);
  bool operator==(const QuorumCert&) const = default;

  std::string to_string() const;
};

/// Builds the digest a voter signs for (type, view, block metadata) — used
/// both when casting votes and when verifying QCs.
Hash256 vote_digest(std::string_view domain, QcType type, ViewNumber view,
                    const Hash256& block_hash, ViewNumber block_view,
                    Height height, ViewNumber pview, bool virtual_block);

/// Rank comparison per Fig. 4. Returns <0, 0, >0 like a three-way compare.
///   (a) higher view wins;
///   (b) same view: {PREPARE, COMMIT} beats PRE-PREPARE;
///   (c) same view, both in {PREPARE, COMMIT}: higher height wins.
/// (PreCommit is grouped with Prepare/Commit; it only appears in HotStuff,
/// which never mixes it with PrePrepare.)
int compare_rank(const QuorumCert& a, const QuorumCert& b);

inline bool rank_greater(const QuorumCert& a, const QuorumCert& b) {
  return compare_rank(a, b) > 0;
}
inline bool rank_geq(const QuorumCert& a, const QuorumCert& b) {
  return compare_rank(a, b) >= 0;
}
inline bool rank_equal(const QuorumCert& a, const QuorumCert& b) {
  return compare_rank(a, b) == 0;
}

/// The justify field of a block/message: one primary QC, plus — only when
/// the primary is a pre-prepareQC for a *virtual* block — the prepareQC
/// `vc` for that virtual block's parent (paper: justify of the form
/// (qc, vc)). Rank of a Justify is the rank of its primary QC.
struct Justify {
  std::optional<QuorumCert> qc;
  std::optional<QuorumCert> vc;

  bool empty() const { return !qc.has_value(); }
  bool has_vc() const { return vc.has_value(); }

  void encode(Writer& w) const;
  /// Exact number of bytes encode() appends.
  std::size_t encoded_size() const;
  static Result<Justify> decode(Reader& r);
  bool operator==(const Justify&) const = default;
};

}  // namespace marlin::types
