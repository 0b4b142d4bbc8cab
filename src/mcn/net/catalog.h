// Catalog persistence: the NetworkFiles metadata (file ids, B+-tree roots
// and heights, entity counts) as a small text file, the companion of
// storage::SaveDiskImage / LoadDiskImage. Together they let a built network
// database be stored once and reopened by later processes.
#ifndef MCN_NET_CATALOG_H_
#define MCN_NET_CATALOG_H_

#include <string>

#include "mcn/common/result.h"
#include "mcn/net/network_reader.h"

namespace mcn::net {

/// Writes the catalog for `files` to `path` (overwriting).
Status SaveCatalog(const NetworkFiles& files, const std::string& path);

/// Reads a catalog previously written by SaveCatalog. The returned handle
/// is only meaningful against the disk image saved alongside it.
Result<NetworkFiles> LoadCatalog(const std::string& path);

/// Convenience: disk image + catalog in one call (paths `base + ".img"`
/// and `base + ".cat"`).
Status SaveNetworkDatabase(const storage::DiskManager& disk,
                           const NetworkFiles& files,
                           const std::string& base_path);
struct LoadedDatabase {
  storage::DiskManager disk;
  NetworkFiles files;
};
Result<LoadedDatabase> LoadNetworkDatabase(const std::string& base_path);

}  // namespace mcn::net

#endif  // MCN_NET_CATALOG_H_
