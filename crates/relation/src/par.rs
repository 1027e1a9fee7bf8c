//! [`par_map`], the workspace's one way to run work in parallel.

/// Apply `f` to every item on at most `threads` threads and return the
/// results in input order. The items are cut into `min(threads, len)`
/// contiguous chunks: the caller's thread runs the first, one scoped thread
/// each runs the rest, and nothing outlives the call. With one chunk (one
/// item, or `threads <= 1`) everything runs inline. A task's panic reaches
/// the caller with its payload unchanged once every chunk has stopped.
///
/// A traced run counts the spawned threads in `pool.tasks`. When the
/// caller runs under a [`mjoin_trace::Collector`], each spawned thread runs
/// under a fork of it, merged back as the thread joins, so a request's
/// spans and counters stay its own whichever thread recorded them.
pub fn par_map<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let chunks = threads.clamp(1, items.len().max(1));
    if chunks == 1 {
        return items.into_iter().map(f).collect();
    }
    let size = items.len().div_ceil(chunks);
    let mut rest = items.into_iter();
    let first: Vec<T> = rest.by_ref().take(size).collect();
    let f = &f;
    std::thread::scope(|s| {
        let mut spawned = Vec::with_capacity(chunks - 1);
        while rest.len() > 0 {
            let chunk: Vec<T> = rest.by_ref().take(size).collect();
            let fork = mjoin_trace::Collector::fork();
            spawned.push(s.spawn(move || {
                let work = || chunk.into_iter().map(f).collect::<Vec<R>>();
                match fork {
                    Some(fork) => {
                        let (part, fork) = fork.run(work);
                        (part, Some(fork))
                    }
                    None => (work(), None),
                }
            }));
        }
        mjoin_trace::add("pool.tasks", spawned.len() as u64);
        let mut out: Vec<R> = first.into_iter().map(f).collect();
        for handle in spawned {
            match handle.join() {
                Ok((part, fork)) => {
                    out.extend(part);
                    if let Some(fork) = fork {
                        mjoin_trace::merge(fork);
                    }
                }
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Mutex;
    use std::thread;

    #[test]
    fn par_map_preserves_order() {
        for threads in [1, 2, 3, 4, 8, 200] {
            let out = par_map((0..100).collect(), threads, |x: u64| x * 2);
            assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn nested_par_maps_do_not_deadlock() {
        let out = par_map((0..8).collect::<Vec<u64>>(), 4, |x| {
            par_map((0..8).collect::<Vec<u64>>(), 4, move |y| x * y)
                .into_iter()
                .sum::<u64>()
        });
        let expected: Vec<u64> = (0..8).map(|x| x * 28).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn task_panic_propagates() {
        // Item 5 lands in a spawned chunk, item 0 in the caller's.
        for bad in [5, 0] {
            let r = std::panic::catch_unwind(|| {
                par_map((0..8).collect::<Vec<u32>>(), 4, |x| {
                    if x == bad {
                        panic!("boom at {x}");
                    }
                    x
                })
            });
            let payload = r.expect_err("the task's panic reaches the caller");
            let msg = payload
                .downcast_ref::<String>()
                .expect("a formatted panic carries a String");
            assert_eq!(msg, &format!("boom at {bad}"));
        }
        assert_eq!(par_map(vec![1, 2, 3], 2, |x| x + 1), vec![2, 3, 4]);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        assert_eq!(par_map(Vec::<u32>::new(), 4, |x| x), Vec::<u32>::new());
        assert_eq!(par_map(vec![7], 4, |x| x * 3), vec![21]);
    }

    #[test]
    fn one_item_or_one_thread_runs_on_the_caller() {
        let me = thread::current().id();
        assert_eq!(par_map(vec![()], 8, |()| thread::current().id()), [me]);
        for threads in [0, 1] {
            let ids = par_map(vec![(); 16], threads, |()| thread::current().id());
            assert!(ids.iter().all(|&id| id == me));
        }
    }

    #[test]
    fn at_most_threads_threads_run_the_items() {
        let seen = Mutex::new(HashSet::new());
        let out = par_map((0..16).collect::<Vec<u32>>(), 3, |x| {
            seen.lock().unwrap().insert(thread::current().id());
            x
        });
        assert_eq!(out, (0..16).collect::<Vec<_>>());
        let seen = seen.into_inner().unwrap();
        assert!(seen.len() <= 3, "{} threads ran 16 items", seen.len());
        assert!(seen.contains(&thread::current().id()));
    }

    #[test]
    fn a_collector_follows_the_items_onto_spawned_threads() {
        let (out, c) = mjoin_trace::Collector::new(true).run(|| {
            par_map((0..8).collect::<Vec<u32>>(), 4, |x| {
                drop(mjoin_trace::span("test", "item"));
                mjoin_trace::add("test.items", 1);
                x
            })
        });
        assert_eq!(out, (0..8).collect::<Vec<_>>());
        let t = c.into_trace();
        assert_eq!(t.events.len(), 8);
        assert_eq!(t.counter("test.items"), Some(8));
        assert_eq!(t.counter("pool.tasks"), Some(3));
    }
}
