#include "net/batch.h"

#include "net/network.h"

namespace pgrid::net {

BatchScope::BatchScope(Network& net, NodeAddr from) : net_(net), from_(from) {
  net_.open_batch(from_);
}

BatchScope::~BatchScope() { net_.close_batch(from_); }

}  // namespace pgrid::net
