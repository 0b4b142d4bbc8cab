// Fuzz target for the persisted storage formats, shared between the
// libFuzzer entry point (disk_image_fuzz.cc) and the seed corpus replay
// test (tests/fuzz_corpus_replay_test.cc).
//
// The input is treated as a full MCNDISK1 disk image and parsed through
// storage::LoadDiskImageFromBuffer. When the image parses, every file in
// it is additionally probed as a routing table (shard::ReadRoutingTable)
// and as an MLI1 landmark index (net::LandmarkIndexReader::Validate plus
// one LoadNodeRow), and every record of every page read as a slotted page
// goes through the adjacency and facility record decoders (net/format.h),
// so the nested parsers see the fuzzer's bytes too. All of them must
// reject malformed input with a Status — never a crash, CHECK failure, or
// out-of-bounds access.
#ifndef MCN_FUZZ_DISK_IMAGE_TARGET_H_
#define MCN_FUZZ_DISK_IMAGE_TARGET_H_

#include <cstddef>
#include <cstdint>

namespace mcn::fuzz {

/// Returns true when every parser rejected or accepted the input
/// gracefully; the sanitizers catch the failure modes this target
/// exists for, so the return value only reports explicit violations.
bool RunDiskImageTarget(const uint8_t* data, size_t size);

/// True when the input parses as a disk image — the replay test uses it
/// to assert the seeds are meaningful.
bool DiskImageParses(const uint8_t* data, size_t size);

}  // namespace mcn::fuzz

#endif  // MCN_FUZZ_DISK_IMAGE_TARGET_H_
