#ifndef RCONS_ENGINE_STORE_HPP
#define RCONS_ENGINE_STORE_HPP
struct Store { int size = 0; };
#endif  // RCONS_ENGINE_STORE_HPP
