// On-disk record formats for the network storage scheme of the paper's
// Fig. 2: a paged adjacency file (per-node adjacency records), a paged
// facility file (per-edge facility lists), an adjacency tree (B+-tree:
// node id -> record position) and a facility tree (B+-tree: facility id ->
// containing edge).
//
// Adjacency record (slotted; self-describing):
//   u32 node_id, u16 degree, u16 reserved,
//   degree x { u32 neighbor, u32 fac_page, u16 fac_slot, u16 fac_count,
//              d x f64 cost }
//
// Facility record, one per edge carrying facilities (slotted):
//   u32 edge_u, u32 edge_v, u16 count, u16 reserved,
//   count x { u32 facility_id, f64 frac }   (frac measured from edge_u)
#ifndef MCN_NET_FORMAT_H_
#define MCN_NET_FORMAT_H_

#include <cstdint>
#include <span>
#include <vector>

#include "mcn/common/result.h"
#include "mcn/graph/cost_vector.h"
#include "mcn/graph/multi_cost_graph.h"
#include "mcn/storage/page.h"

namespace mcn::net {

/// Position of an edge's facility record in the facility file. `count == 0`
/// (with page == kInvalidPageNo) means the edge carries no facilities, so
/// the facility file need not be touched at all for it.
struct FacRef {
  storage::PageNo page = storage::kInvalidPageNo;
  uint16_t slot = 0;
  uint16_t count = 0;

  bool empty() const { return count == 0; }
};

/// One decoded entry of a node's adjacency record.
struct AdjEntry {
  graph::NodeId neighbor = graph::kInvalidNode;
  FacRef fac;
  graph::CostVector w;
};

/// One decoded entry of an edge's facility record. `frac` is measured from
/// the canonical endpoint u of the edge.
struct FacilityOnEdge {
  graph::FacilityId facility = 0;
  double frac = 0.0;
};

/// Position of a record in a slotted file, packed into the 64-bit value slot
/// of the B+-tree.
struct RecordPos {
  storage::PageNo page = storage::kInvalidPageNo;
  uint16_t slot = 0;

  uint64_t Pack() const {
    return (static_cast<uint64_t>(page) << 16) | slot;
  }
  static RecordPos Unpack(uint64_t v) {
    RecordPos p;
    p.page = static_cast<storage::PageNo>(v >> 16);
    p.slot = static_cast<uint16_t>(v & 0xFFFF);
    return p;
  }
};

/// Encoded sizes.
inline constexpr size_t kAdjRecordHeader = 8;
inline size_t AdjEntryBytes(int num_costs) {
  return 12 + 8 * static_cast<size_t>(num_costs);
}
inline size_t AdjRecordBytes(uint32_t degree, int num_costs) {
  return kAdjRecordHeader + degree * AdjEntryBytes(num_costs);
}
inline constexpr size_t kFacRecordHeader = 12;
inline size_t FacRecordBytes(uint32_t count) {
  return kFacRecordHeader + count * 12u;
}

/// Encoding/decoding of the records (used by the builder, the reader and
/// format tests). The decoders read pages of untrusted provenance (a
/// loaded disk image): a record shorter than its header, or than the
/// entries its header declares, comes back as Corruption with the output
/// left empty.
std::vector<std::byte> EncodeAdjRecord(graph::NodeId node,
                                       const std::vector<AdjEntry>& entries,
                                       int num_costs);
/// Decodes into `entries` (cleared first). Returns the record's node id.
Result<graph::NodeId> DecodeAdjRecord(std::span<const std::byte> bytes,
                                      int num_costs,
                                      std::vector<AdjEntry>* entries);

std::vector<std::byte> EncodeFacRecord(
    graph::EdgeKey edge, const std::vector<FacilityOnEdge>& facilities);
/// Decodes into `facilities` (cleared first). Returns the edge key.
Result<graph::EdgeKey> DecodeFacRecord(
    std::span<const std::byte> bytes,
    std::vector<FacilityOnEdge>* facilities);

}  // namespace mcn::net

#endif  // MCN_NET_FORMAT_H_
