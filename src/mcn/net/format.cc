#include "mcn/net/format.h"

#include <cstring>
#include <string>

#include "mcn/common/macros.h"

namespace mcn::net {
namespace {

template <typename T>
void Append(std::vector<std::byte>& out, T v) {
  size_t at = out.size();
  out.resize(at + sizeof(T));
  std::memcpy(out.data() + at, &v, sizeof(T));
}

/// Unchecked load: the decoders validate the record's length against its
/// header before reading any entry.
template <typename T>
T Read(std::span<const std::byte> bytes, size_t at) {
  T v;
  std::memcpy(&v, bytes.data() + at, sizeof(T));
  return v;
}

}  // namespace

std::vector<std::byte> EncodeAdjRecord(graph::NodeId node,
                                       const std::vector<AdjEntry>& entries,
                                       int num_costs) {
  std::vector<std::byte> out;
  out.reserve(AdjRecordBytes(static_cast<uint32_t>(entries.size()),
                             num_costs));
  Append<uint32_t>(out, node);
  Append<uint16_t>(out, static_cast<uint16_t>(entries.size()));
  Append<uint16_t>(out, 0);
  for (const AdjEntry& e : entries) {
    Append<uint32_t>(out, e.neighbor);
    Append<uint32_t>(out, e.fac.page);
    Append<uint16_t>(out, e.fac.slot);
    Append<uint16_t>(out, e.fac.count);
    // Encoder-side programmer error, not untrusted input.
    // mcn-lint: disable-next-line=check-in-decode
    MCN_DCHECK(e.w.dim() == num_costs);
    for (int i = 0; i < num_costs; ++i) Append<double>(out, e.w[i]);
  }
  return out;
}

Result<graph::NodeId> DecodeAdjRecord(std::span<const std::byte> bytes,
                                      int num_costs,
                                      std::vector<AdjEntry>* entries) {
  entries->clear();
  if (bytes.size() < kAdjRecordHeader) {
    return Status::Corruption("adjacency record shorter than its header");
  }
  const graph::NodeId node = Read<uint32_t>(bytes, 0);
  const uint16_t degree = Read<uint16_t>(bytes, 4);
  if (bytes.size() < AdjRecordBytes(degree, num_costs)) {
    return Status::Corruption("adjacency record of node " +
                              std::to_string(node) + " declares " +
                              std::to_string(degree) +
                              " entries it does not hold");
  }
  entries->reserve(degree);
  size_t at = kAdjRecordHeader;
  for (uint16_t i = 0; i < degree; ++i) {
    AdjEntry& e = entries->emplace_back();
    e.neighbor = Read<uint32_t>(bytes, at);
    e.fac.page = Read<uint32_t>(bytes, at + 4);
    e.fac.slot = Read<uint16_t>(bytes, at + 8);
    e.fac.count = Read<uint16_t>(bytes, at + 10);
    e.w = graph::CostVector(num_costs);
    for (int c = 0; c < num_costs; ++c) {
      e.w[c] = Read<double>(bytes, at + 12 + 8 * static_cast<size_t>(c));
    }
    at += AdjEntryBytes(num_costs);
  }
  return node;
}

std::vector<std::byte> EncodeFacRecord(
    graph::EdgeKey edge, const std::vector<FacilityOnEdge>& facilities) {
  std::vector<std::byte> out;
  out.reserve(FacRecordBytes(static_cast<uint32_t>(facilities.size())));
  Append<uint32_t>(out, edge.u);
  Append<uint32_t>(out, edge.v);
  Append<uint16_t>(out, static_cast<uint16_t>(facilities.size()));
  Append<uint16_t>(out, 0);
  for (const FacilityOnEdge& f : facilities) {
    Append<uint32_t>(out, f.facility);
    Append<double>(out, f.frac);
  }
  return out;
}

Result<graph::EdgeKey> DecodeFacRecord(
    std::span<const std::byte> bytes,
    std::vector<FacilityOnEdge>* facilities) {
  facilities->clear();
  if (bytes.size() < kFacRecordHeader) {
    return Status::Corruption("facility record shorter than its header");
  }
  graph::EdgeKey edge;
  edge.u = Read<uint32_t>(bytes, 0);
  edge.v = Read<uint32_t>(bytes, 4);
  const uint16_t count = Read<uint16_t>(bytes, 8);
  if (bytes.size() < FacRecordBytes(count)) {
    return Status::Corruption("facility record declares " +
                              std::to_string(count) +
                              " entries it does not hold");
  }
  facilities->reserve(count);
  size_t at = kFacRecordHeader;
  for (uint16_t i = 0; i < count; ++i) {
    facilities->push_back(FacilityOnEdge{Read<uint32_t>(bytes, at),
                                         Read<double>(bytes, at + 4)});
    at += 12;
  }
  return edge;
}

}  // namespace mcn::net
