/*
 * sampler.c: a wall-clock stack sampler for hosts without perf, loaded
 * with LD_PRELOAD into an unmodified program.
 *
 * Every 200 us of real time (ITIMER_REAL, delivered as SIGALRM) the
 * handler records the interrupted instruction pointer and the return
 * addresses of the frame-pointer chain above it. At exit the samples and
 * a copy of /proc/self/maps go to sampler.<pid>.txt in the working
 * directory; symbolize.py turns that into per-function shares.
 *
 *   gcc -O2 -shared -fPIC -o sampler.so sampler.c
 *   LD_PRELOAD=$PWD/sampler.so ./program args...
 *
 * The program needs frame pointers (RUSTFLAGS="-C force-frame-pointers=yes").
 * Only the main thread's stack is walked: a sample that lands on another
 * thread records its instruction pointer alone. ITIMER_REAL counts wall
 * time, so a process that blocks is sampled while it waits.
 */
#define _GNU_SOURCE
#include <pthread.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define PERIOD_US 200
#define MAX_DEPTH 128
/* 64 MiB of address space; only the pages samples reach are touched */
#define BUF_WORDS (1u << 23)

/* one record per sample: a frame count, then that many addresses,
 * innermost first */
static uint64_t buf[BUF_WORDS];
static size_t used;
static size_t dropped;
static uintptr_t stack_lo, stack_hi;

static void on_alarm(int sig, siginfo_t *info, void *context)
{
    (void)sig;
    (void)info;
    const ucontext_t *uc = context;
    uintptr_t fp = (uintptr_t)uc->uc_mcontext.gregs[REG_RBP];
    uintptr_t sp = (uintptr_t)uc->uc_mcontext.gregs[REG_RSP];
    uint64_t frames[MAX_DEPTH];
    size_t n = 0;
    frames[n++] = (uint64_t)uc->uc_mcontext.gregs[REG_RIP];
    /* Everything between the interrupted stack pointer and the top of
     * the main stack is mapped, so a frame pointer inside that range can
     * be read whatever it holds; one outside it ends the walk. */
    int on_main = sp >= stack_lo && sp < stack_hi;
    while (on_main && n < MAX_DEPTH && fp >= sp && fp + 16 <= stack_hi && (fp & 7) == 0) {
        uintptr_t next = ((const uintptr_t *)fp)[0];
        uintptr_t ret = ((const uintptr_t *)fp)[1];
        if (ret == 0)
            break;
        frames[n++] = ret;
        if (next <= fp)
            break;
        fp = next;
    }
    /* two threads may take the signal at once: reserve, then write */
    size_t at = __atomic_fetch_add(&used, n + 1, __ATOMIC_RELAXED);
    if (at + n + 1 > BUF_WORDS) {
        __atomic_fetch_sub(&used, n + 1, __ATOMIC_RELAXED);
        __atomic_fetch_add(&dropped, 1, __ATOMIC_RELAXED);
        return;
    }
    buf[at] = n;
    memcpy(&buf[at + 1], frames, n * sizeof frames[0]);
}

__attribute__((constructor)) static void sampler_start(void)
{
    pthread_attr_t attr;
    if (pthread_getattr_np(pthread_self(), &attr) == 0) {
        void *lo;
        size_t size;
        if (pthread_attr_getstack(&attr, &lo, &size) == 0) {
            stack_lo = (uintptr_t)lo;
            stack_hi = stack_lo + size;
        }
        pthread_attr_destroy(&attr);
    }
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_alarm;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGALRM, &sa, NULL);
    struct itimerval every = {{0, PERIOD_US}, {0, PERIOD_US}};
    setitimer(ITIMER_REAL, &every, NULL);
}

__attribute__((destructor)) static void sampler_stop(void)
{
    struct itimerval off;
    memset(&off, 0, sizeof off);
    setitimer(ITIMER_REAL, &off, NULL);
    char path[64];
    snprintf(path, sizeof path, "sampler.%d.txt", (int)getpid());
    FILE *out = fopen(path, "w");
    if (!out)
        return;
    fprintf(out, "# samples period_us=%d dropped=%zu\n", PERIOD_US, dropped);
    for (size_t i = 0; i < used;) {
        size_t n = buf[i++];
        for (size_t k = 0; k < n; k++)
            fprintf(out, k ? " %lx" : "%lx", (unsigned long)buf[i + k]);
        fputc('\n', out);
        i += n;
    }
    fputs("# maps\n", out);
    FILE *maps = fopen("/proc/self/maps", "r");
    if (maps) {
        char line[4096];
        while (fgets(line, sizeof line, maps))
            fputs(line, out);
        fclose(maps);
    }
    fclose(out);
}
