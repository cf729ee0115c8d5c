type wait_stats = { w_p99_s : float }

type pool_stats = {
  p_parallel_jobs : int;
  p_bypass_jobs : int;
  p_busy_s : float;
  p_idle_s : float;
  p_wait : wait_stats;
}

type snapshot = { s_pool : pool_stats }

let enable ?clock:_ () = ()
let disable () = ()

let snapshot () =
  { s_pool =
      { p_parallel_jobs = 0; p_bypass_jobs = 0; p_busy_s = 0.; p_idle_s = 0.;
        p_wait = { w_p99_s = 0. } } }
