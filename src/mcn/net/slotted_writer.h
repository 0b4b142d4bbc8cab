// SlottedFileWriter: appends variable-size records into consecutive slotted
// pages of a DiskManager file, flushing a page when the next record does not
// fit. Used by the build path (shard/sharded_builder.cc), which lays each
// shard's records into its own file set. Build-time writes go straight to
// the DiskManager — load cost is not query cost.
#ifndef MCN_NET_SLOTTED_WRITER_H_
#define MCN_NET_SLOTTED_WRITER_H_

#include <span>
#include <vector>

#include "mcn/common/status.h"
#include "mcn/net/format.h"
#include "mcn/storage/disk_manager.h"
#include "mcn/storage/slotted_page.h"

namespace mcn::net {

class SlottedFileWriter {
 public:
  SlottedFileWriter(storage::DiskManager* disk, storage::FileId file);

  /// Appends `record`; outputs its position (may be null). Fails if the
  /// record can never fit in a page.
  Status Append(std::span<const std::byte> record, RecordPos* pos);

  /// Writes the trailing partial page, if any.
  Status Finish();

 private:
  Status Flush();

  storage::DiskManager* disk_;
  storage::FileId file_;
  std::vector<std::byte> buf_;
  storage::SlottedPageBuilder builder_;
  storage::PageNo next_page_ = 0;
  bool dirty_ = false;
};

}  // namespace mcn::net

#endif  // MCN_NET_SLOTTED_WRITER_H_
