// §VII-D storage: the footprint of holding every revocation at an RA.
//
// Paper: with the full dataset (1,381,992 revocations), the storage
// overhead is "slightly above 4 MB" and the memory to build and keep all
// dictionaries is 36 MB; for 10 million revocations, 30 MB and 260 MB.
// (Their Python representation differs from ours; the target is the order
// of magnitude and the linear scaling.)
#include <cstdio>

#include "common/rng.hpp"
#include "common/table.hpp"
#include "dict/dictionary.hpp"

using namespace ritm;

namespace {
double mb(std::size_t bytes) { return double(bytes) / 1e6; }
}  // namespace

int main() {
  std::printf("== §VII-D: RA storage / memory for all revocations ==\n\n");
  Rng rng(5);

  Table t({"revocations", "storage (MB)", "memory (MB)", "paper storage",
           "paper memory"});

  const struct {
    std::uint64_t count;
    const char* paper_storage;
    const char* paper_memory;
  } cases[] = {
      {1'381'992, "~4 MB", "36 MB"},
      {10'000'000, "30 MB", "260 MB"},
  };

  for (const auto& c : cases) {
    dict::Dictionary d;
    // Insert in a few Heartbleed-scale batches with the dataset's 3-byte
    // modal serials (wider serials for the overflow range).
    std::vector<cert::SerialNumber> batch;
    batch.reserve(c.count);
    for (std::uint64_t i = 0; i < c.count; ++i) {
      if (i < (1u << 24)) {
        batch.push_back(cert::SerialNumber::from_uint(i, 3));
      } else {
        batch.push_back(cert::SerialNumber::from_uint(i, 4));
      }
    }
    d.insert(batch);
    batch.clear();
    batch.shrink_to_fit();

    t.add_row({Table::num(c.count), Table::num(mb(d.storage_bytes()), 2),
               Table::num(mb(d.memory_bytes()), 2), c.paper_storage,
               c.paper_memory});
  }
  std::printf("%s\n", t.render().c_str());
  std::printf("storage = persisted revocation list (serial + number);\n"
              "memory  = in-core entries + sorted index + full Merkle level "
              "array\n");
  return 0;
}
