#ifndef RCONS_ENGINE_QUEUE_HPP
#define RCONS_ENGINE_QUEUE_HPP
struct Queue { int depth = 0; };
#endif  // RCONS_ENGINE_QUEUE_HPP
