// Fixture: await-in-condition. GCC 12 miscompiles a coroutine whose if /
// while / switch condition awaits a temporary outside a loop: the body
// never runs. The outcome is bound in the init-statement instead. Lexed
// only.

sim::Task Fetch(int page);
bool Ready(int page);

sim::Task Conditions(int page) {
  if (co_await Fetch(page)) {  // EXPECT: await-in-condition
    co_return;
  }
  while (co_await Fetch(page + 1)) {  // EXPECT: await-in-condition
  }
  if (bool aborted = co_await Fetch(page + 2)) {  // EXPECT: await-in-condition
    co_return;
  }
  if (Ready(page) && co_await Fetch(page + 3)) {  // EXPECT: await-in-condition
    co_return;
  }
  co_return;
}

// FP guard: the init-statement binds the outcome; the condition reads it.
sim::Task InitStatement(int page) {
  if (const bool aborted = co_await Fetch(page); aborted) {  // FP-GUARD: await-in-condition
    co_return;
  }
  const bool again = co_await Fetch(page + 1);
  if (again) {  // FP-GUARD: await-in-condition
    co_return;
  }
  if (Ready(page)) {  // FP-GUARD: await-in-condition — the await is in the body
    co_await Fetch(page + 2);
  }
  co_return;
}
