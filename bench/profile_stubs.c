/* PC sampler for bench/profile.ml: a CLOCK_MONOTONIC POSIX timer
   delivers SIGPROF to the calling thread every [interval_us], and the
   handler appends the interrupted program counter to a fixed buffer.
   The handler only stores into preallocated memory, so it is
   async-signal-safe. Linux only (SIGEV_THREAD_ID, ucontext layout of
   x86-64 and AArch64); elsewhere the stubs compile but fail when
   called, so the rest of the build is unaffected. */

#define _GNU_SOURCE /* before any header: REG_RIP, SIGEV_THREAD_ID */

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>

#if defined(__linux__)

#include <signal.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <sys/syscall.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#define CAPACITY (1 << 20)

static uintptr_t *samples;
static volatile size_t n_samples;
static volatile size_t n_lost;
static timer_t timer;

static void on_sigprof(int sig, siginfo_t *info, void *ctx)
{
  ucontext_t *uc = ctx;
  uintptr_t pc;
  (void)sig;
  (void)info;
#if defined(__x86_64__)
  pc = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
  pc = (uintptr_t)uc->uc_mcontext.pc;
#else
  pc = 0;
  (void)uc;
#endif
  if (n_samples < CAPACITY)
    samples[n_samples++] = pc;
  else
    n_lost++;
}

value ebrc_prof_start(value interval_us)
{
  struct sigaction sa;
  struct sigevent sev;
  struct itimerspec its;
  long us = Long_val(interval_us);
  if (samples == NULL) samples = malloc(CAPACITY * sizeof(uintptr_t));
  if (samples == NULL) caml_failwith("profile: out of memory");
  n_samples = 0;
  n_lost = 0;
  memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = on_sigprof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGPROF, &sa, NULL) != 0)
    caml_failwith("profile: sigaction");
  memset(&sev, 0, sizeof sev);
  sev.sigev_notify = SIGEV_THREAD_ID;
  sev.sigev_signo = SIGPROF;
  sev._sigev_un._tid = (pid_t)syscall(SYS_gettid);
  if (timer_create(CLOCK_MONOTONIC, &sev, &timer) != 0)
    caml_failwith("profile: timer_create");
  its.it_interval.tv_sec = us / 1000000;
  its.it_interval.tv_nsec = (us % 1000000) * 1000;
  its.it_value = its.it_interval;
  if (timer_settime(timer, 0, &its, NULL) != 0)
    caml_failwith("profile: timer_settime");
  return Val_unit;
}

/* Stop sampling; returns (samples, lost). SIGPROF stays ignored
   afterwards: a signal still in flight when the timer is deleted must
   not meet the default action, which terminates the process. */
value ebrc_prof_stop(value unit)
{
  CAMLparam1(unit);
  CAMLlocal2(arr, res);
  struct sigaction ign;
  size_t i, n;
  (void)unit;
  timer_delete(timer);
  memset(&ign, 0, sizeof ign);
  ign.sa_handler = SIG_IGN;
  sigemptyset(&ign.sa_mask);
  sigaction(SIGPROF, &ign, NULL);
  n = n_samples;
  arr = caml_alloc(n, 0);
  for (i = 0; i < n; i++) Store_field(arr, i, Val_long((intnat)samples[i]));
  res = caml_alloc_tuple(2);
  Store_field(res, 0, arr);
  Store_field(res, 1, Val_long(n_lost));
  CAMLreturn(res);
}

#else

value ebrc_prof_start(value interval_us)
{
  (void)interval_us;
  caml_failwith("profile: needs Linux");
}

value ebrc_prof_stop(value unit)
{
  (void)unit;
  caml_failwith("profile: needs Linux");
}

#endif
