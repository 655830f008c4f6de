/* wait4(2) with the child's peak resident set size: the OCaml Unix
   library reaps children but drops their rusage. */
#include <sys/types.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <errno.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/signals.h>
#include <caml/unixsupport.h>

/* perfbench_wait4 pid -> (exit code or -signal, ru_maxrss in KiB) */
value perfbench_wait4(value vpid)
{
  CAMLparam1(vpid);
  CAMLlocal1(res);
  int status = 0;
  struct rusage ru;
  pid_t r;
  caml_enter_blocking_section();
  do {
    r = wait4(Int_val(vpid), &status, 0, &ru);
  } while (r < 0 && errno == EINTR);
  caml_leave_blocking_section();
  if (r < 0) uerror("wait4", Nothing);
  res = caml_alloc_tuple(2);
  Store_field(res, 0,
              Val_int(WIFEXITED(status) ? WEXITSTATUS(status)
                                        : -WTERMSIG(status)));
  Store_field(res, 1, Val_long(ru.ru_maxrss));
  CAMLreturn(res);
}
