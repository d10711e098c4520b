#include "sim/memory.hpp"

#include "util/assert.hpp"

namespace rcons::sim {

RegId Memory::add_register(typesys::Value initial) {
  registers_.push_back(initial);
  return static_cast<RegId>(registers_.size()) - 1;
}

ObjId Memory::add_object(std::shared_ptr<typesys::TransitionCache> cache,
                         typesys::StateId q0) {
  RCONS_ASSERT(cache != nullptr);
  objects_.push_back(Object{std::move(cache), q0});
  return static_cast<ObjId>(objects_.size()) - 1;
}

typesys::Value Memory::read(RegId reg) const {
  RCONS_ASSERT(reg >= 0 && reg < num_registers());
  return registers_[static_cast<std::size_t>(reg)];
}

void Memory::write(RegId reg, typesys::Value value) {
  RCONS_ASSERT(reg >= 0 && reg < num_registers());
  registers_[static_cast<std::size_t>(reg)] = value;
}

typesys::Value Memory::apply(ObjId obj, typesys::OpId op) {
  RCONS_ASSERT(obj >= 0 && obj < num_objects());
  Object& object = objects_[static_cast<std::size_t>(obj)];
  // Exploration workers step copies of one Memory on several threads.
  const auto step = object.cache->apply_shared(object.state, op);
  object.state = step.next;
  return step.response;
}

typesys::StateId Memory::object_state(ObjId obj) const {
  RCONS_ASSERT(obj >= 0 && obj < num_objects());
  return objects_[static_cast<std::size_t>(obj)].state;
}

typesys::TransitionCache& Memory::cache(ObjId obj) const {
  RCONS_ASSERT(obj >= 0 && obj < num_objects());
  return *objects_[static_cast<std::size_t>(obj)].cache;
}

void Memory::encode(std::vector<typesys::Value>& out) const {
  out.insert(out.end(), registers_.begin(), registers_.end());
  for (const Object& object : objects_) out.push_back(object.state);
}

std::size_t Memory::decode(const typesys::Value* data, std::size_t size) {
  const std::size_t width = encoded_width();
  RCONS_ASSERT_MSG(size >= width, "truncated memory encoding");
  for (std::size_t i = 0; i < registers_.size(); ++i) registers_[i] = data[i];
  for (std::size_t j = 0; j < objects_.size(); ++j) {
    objects_[j].state = static_cast<typesys::StateId>(data[registers_.size() + j]);
  }
  return width;
}

}  // namespace rcons::sim
