#include "engine/store.hpp"
