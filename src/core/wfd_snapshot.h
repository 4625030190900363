// WFD snapshot-fork templates (DESIGN.md §14).
//
// A WfdSnapshot freezes everything a workflow's first successful boot+invoke
// produced that is expensive to rebuild: the heap arena's resident pages
// (sealed memfd, cloned MAP_PRIVATE), the allocator's free-list cursor
// (position-independent image, rebased into the clone's address space), the
// fatfs disk contents (chunk-granular CoW image) plus the mounted volume's
// geometry/FAT, and the loaded-module table. Cloning a WFD from it skips
// Libos module construction entirely — the ~13 ms dlmopen-dominated cold
// boot becomes an O(µs) mmap + rebase.
//
// Snapshots are immutable once published. The visor owns one SnapshotCell
// per workflow registration; the pool factory and the invoke miss path read
// it, the first successful post-invoke reset writes it, and re-registration
// or a failed reset invalidates it.

#ifndef SRC_CORE_WFD_SNAPSHOT_H_
#define SRC_CORE_WFD_SNAPSHOT_H_

#include <memory>
#include <mutex>
#include <vector>

#include "src/alloc/arena.h"
#include "src/alloc/linked_list_allocator.h"
#include "src/blockdev/block_device.h"
#include "src/core/libos/module.h"
#include "src/fatfs/fat_volume.h"

namespace alloy {

struct WfdSnapshot {
  // ---- libos state ----
  // Modules loaded in the template, in load order. Clone boot reconstructs
  // each module's host-side objects from the images below without paying
  // LoadModuleImage (the simulated dlmopen) or device I/O.
  std::vector<ModuleKind> modules;
  // Heap template (null when mm was never loaded).
  std::shared_ptr<const asalloc::ArenaSnapshot> heap;
  asalloc::LinkedListAllocator::Image allocator;
  // Disk template + mounted-volume metadata (null when fatfs was never
  // loaded; ramfs-backed WFDs are not snapshotable and always full-boot).
  std::shared_ptr<const asblk::MemDiskImage> disk;
  asfat::FatVolume::MetaImage fat;

  // ---- wfd-level compatibility stamp ----
  // CloneFromSnapshot refuses a snapshot whose geometry does not match the
  // clone's WfdOptions (belt and braces; re-registration already swaps the
  // cell).
  size_t heap_bytes = 0;
  uint64_t disk_blocks = 0;
  bool use_ramfs = false;
  bool load_all = false;

  // Stage-worker fan-out the template had warmed up.
  size_t stage_workers = 0;

  // One-time template cost: heap image bytes in the sealed memfd + disk
  // chunk bytes referenced by the image. Checked against
  // ALLOY_SNAPSHOT_MAX_BYTES at capture.
  size_t image_bytes = 0;
};

// Shared, mutex-guarded holder for a workflow's current snapshot. Shared
// between the visor's registration and the pool factory closure (which may
// outlive the registration).
class SnapshotCell {
 public:
  // A disabled cell (ALLOY_SNAPSHOT=off) is born dead: it never admits a
  // capture, so it never holds a template.
  explicit SnapshotCell(bool enabled = true) : dead_(!enabled) {}

  std::shared_ptr<const WfdSnapshot> Get() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return snapshot_;
  }

  // Claims the (single) capture attempt: returns true when the cell is
  // empty and no capture is running. The winner must call EndCapture.
  bool TryBeginCapture() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (snapshot_ != nullptr || capturing_) {
      return false;
    }
    capturing_ = true;
    return true;
  }

  // Publishes the captured snapshot (or null on capture failure, which
  // re-opens the cell for a later attempt... once: failed captures mark the
  // cell dead so a workflow whose state cannot snapshot does not pay the
  // capture cost on every invocation).
  void EndCapture(std::shared_ptr<const WfdSnapshot> snapshot) {
    std::lock_guard<std::mutex> lock(mutex_);
    capturing_ = false;
    if (snapshot != nullptr) {
      snapshot_ = std::move(snapshot);
    } else {
      dead_ = true;
    }
  }

  bool CaptureWorthTrying() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return snapshot_ == nullptr && !capturing_ && !dead_;
  }

  // Drops the snapshot (reset failure, re-registration). Returns true when
  // a snapshot was actually present (the caller counts an invalidation).
  bool Invalidate() {
    std::lock_guard<std::mutex> lock(mutex_);
    const bool had = snapshot_ != nullptr;
    snapshot_ = nullptr;
    return had;
  }

 private:
  mutable std::mutex mutex_;
  std::shared_ptr<const WfdSnapshot> snapshot_;
  bool capturing_ = false;
  bool dead_ = false;
};

}  // namespace alloy

#endif  // SRC_CORE_WFD_SNAPSHOT_H_
